// Package hostmodel holds the calibrated host-side cost model: what each
// step of the MultiEdge send and receive paths costs on the node's CPUs.
//
// The evaluation nodes (IPPS'07 §3) are dual Opteron 244 machines; the
// paper dedicates one CPU to the application and one to the protocol
// (kernel thread + interrupt processing), and reports protocol CPU
// utilization out of 200%. We model each node with two sim.Resources —
// the app CPU and the protocol CPU — and charge the costs below to the
// appropriate one:
//
//   - Operation initiation (syscall, descriptor setup, user→kernel copy)
//     runs in the caller's context: app CPU. This is the paper's ≈2 µs
//     host overhead plus the copy.
//   - Interrupt handling, the protocol kernel thread's per-frame work,
//     and the kernel→user copy on the receive path: protocol CPU.
//
// Constants are calibrated so that the micro-benchmarks land in the
// paper's reported ranges (≈30 µs minimum one-way latency on 10-GBit/s,
// ≈2 µs initiation overhead, ≈88% of nominal 10-GBit/s throughput
// limited by the sender's CPU, full nominal throughput on 1-GBit/s).
// EXPERIMENTS.md records the calibration outcome.
package hostmodel

import "multiedge/internal/sim"

// Costs is the per-event cost table for one node.
type Costs struct {
	// Syscall is the user→kernel crossing paid on the app CPU each time
	// an operation is initiated.
	Syscall sim.Time
	// Descriptor is the kernel-side bookkeeping to create an operation
	// and its handle, also on the app CPU (caller context).
	Descriptor sim.Time
	// CopyPsPerByte is the memcpy rate for user↔kernel buffer copies,
	// in picoseconds per byte (≈ 1/bandwidth). 350 ps/B ≈ 2.85 GB/s,
	// a realistic single-thread copy bandwidth for a 1.8 GHz Opteron
	// with DDR memory.
	CopyPsPerByte int64
	// FrameTx is the protocol CPU work to emit one frame: header
	// construction, ARQ bookkeeping, doorbell.
	FrameTx sim.Time
	// FrameRx is the protocol CPU work to accept one data frame before
	// the payload copy: header parse, ARQ update, ordering checks.
	FrameRx sim.Time
	// AckProc is the protocol CPU work to process one explicit ACK or
	// NACK frame (or the piggy-backed ACK share of a data frame).
	AckProc sim.Time
	// TxDone is the protocol CPU work to retire one transmit
	// completion (free the kernel DMA buffer).
	TxDone sim.Time
	// Interrupt is the interrupt entry/exit cost on the protocol CPU.
	Interrupt sim.Time
	// Wakeup is the cost (and latency) of waking the protocol kernel
	// thread when it was idle.
	Wakeup sim.Time
	// UserWake is the cost of waking the user process when an operation
	// completes or a notification arrives.
	UserWake sim.Time
	// SQPost is the app-CPU cost to append one descriptor to a
	// user-mapped submission queue: no kernel crossing, just the
	// descriptor store and a memory barrier.
	SQPost sim.Time
	// Doorbell is the cost of ringing a submission-queue doorbell once
	// per batch: one kernel crossing (or MMIO write) regardless of how
	// many descriptors the batch carries. Calibrated below Syscall +
	// Descriptor so a batch of one is already slightly cheaper than the
	// eager RDMA_operation path, and large batches amortize it to noise.
	Doorbell sim.Time
}

// Default returns the calibrated cost table used in all experiments.
func Default() Costs {
	return Costs{
		Syscall:       1100 * sim.Nanosecond,
		Descriptor:    800 * sim.Nanosecond,
		CopyPsPerByte: 350,
		FrameTx:       450 * sim.Nanosecond,
		FrameRx:       350 * sim.Nanosecond,
		AckProc:       250 * sim.Nanosecond,
		TxDone:        120 * sim.Nanosecond,
		Interrupt:     2200 * sim.Nanosecond,
		Wakeup:        7000 * sim.Nanosecond,
		UserWake:      4500 * sim.Nanosecond,
		SQPost:        150 * sim.Nanosecond,
		Doorbell:      1250 * sim.Nanosecond,
	}
}

// Copy returns the CPU time to copy n bytes between user and kernel
// space.
func (c Costs) Copy(n int) sim.Time {
	return sim.Time(int64(n) * c.CopyPsPerByte / 1000)
}

// Initiation returns the app-CPU time to initiate an operation that
// copies n payload bytes at the source (remote writes copy at initiation;
// remote reads copy nothing).
func (c Costs) Initiation(n int) sim.Time {
	return c.Syscall + c.Descriptor + c.Copy(n)
}

// BatchIssue returns the app-CPU time to ring a doorbell covering ops
// posted descriptors whose write payloads copy copyBytes in total: one
// Doorbell crossing, one SQPost per descriptor, plus the user→kernel
// copies. Compare Initiation, which pays Syscall + Descriptor per
// operation.
func (c Costs) BatchIssue(ops, copyBytes int) sim.Time {
	return c.Doorbell + sim.Time(ops)*c.SQPost + c.Copy(copyBytes)
}

// CPUs bundles the two modelled processors of a node.
type CPUs struct {
	App   *sim.Resource
	Proto *sim.Resource
}

// NewCPUs creates the two CPUs for the named node.
func NewCPUs(node string) CPUs {
	return CPUs{
		App:   sim.NewResource(node + "/cpu0-app"),
		Proto: sim.NewResource(node + "/cpu1-proto"),
	}
}
