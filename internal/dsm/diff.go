package dsm

import (
	"encoding/binary"
	"fmt"

	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// Diff propagation. A page with few modified runs is flushed with direct
// remote writes into the home's memory (zero home-side software — the
// GeNIMA idea). A heavily fragmented page (e.g. Radix's scattered 4-byte
// permutation writes) would cost one operation per run that way, so its
// runs are packed into a diff message: one bulk remote write into a
// per-sender staging buffer at the home plus a notification; the home's
// protocol handler unpacks and applies the runs, charging the protocol
// CPU, and acknowledges. One diff batch per (sender, home) is
// outstanding at a time, which is what makes the staging buffer safe to
// reuse.

// directRunMax is the run count up to which a page is flushed with
// direct remote writes instead of a packed diff message.
const directRunMax = 4

// diffBufBytes sizes the per-sender diff staging area at each node. A
// single page's packed diff is at most ~12.3 KB (worst case alternating
// bytes), so every page fits; batches pack multiple pages up to this
// limit.
const diffBufBytes = 32 << 10

// encodePageDiff appends one page's diff to buf:
// [u32 page][u16 nRuns][per run: u16 off, u16 len, data...].
func encodePageDiff(buf []byte, pg int, cur []byte, runs []run) []byte {
	var hdr [6]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(pg))
	binary.LittleEndian.PutUint16(hdr[4:], uint16(len(runs)))
	buf = append(buf, hdr[:]...)
	for _, r := range runs {
		var rh [4]byte
		binary.LittleEndian.PutUint16(rh[0:], uint16(r.off))
		binary.LittleEndian.PutUint16(rh[2:], uint16(r.n))
		buf = append(buf, rh[:]...)
		buf = append(buf, cur[r.off:r.off+r.n]...)
	}
	return buf
}

// pageDiffSize returns the encoded size of a page diff.
func pageDiffSize(runs []run) int {
	n := 6
	for _, r := range runs {
		n += 4 + r.n
	}
	return n
}

// applyDiffBatch decodes a batch from the local diff staging area and
// applies the runs to this node's (home) memory. It returns the payload
// byte count and run count for cost accounting.
func (in *Instance) applyDiffBatch(buf []byte, pages int) (bytes, runs int) {
	mem := in.mem()
	off := 0
	for p := 0; p < pages; p++ {
		pg := int(binary.LittleEndian.Uint32(buf[off:]))
		nRuns := int(binary.LittleEndian.Uint16(buf[off+4:]))
		off += 6
		if in.home(pg) != in.self {
			panic(fmt.Sprintf("dsm: node %d received diff for page %d homed at %d",
				in.self, pg, in.home(pg)))
		}
		base := in.pageAddr(pg)
		for r := 0; r < nRuns; r++ {
			ro := int(binary.LittleEndian.Uint16(buf[off:]))
			rn := int(binary.LittleEndian.Uint16(buf[off+2:]))
			off += 4
			copy(mem[base+uint64(ro):base+uint64(ro)+uint64(rn)], buf[off:off+rn])
			off += rn
			bytes += rn
			runs++
		}
	}
	return bytes, runs
}

// diffBatch is one packed batch of page diffs destined for a home.
type diffBatch struct {
	buf   []byte
	pages int
}

// sendDiffBatches ships the queued per-home diff batches: one in flight
// per home, all homes in parallel, each batch a bulk write into the
// home's staging area followed by a fenced Diff control message. It
// blocks until every batch is acknowledged (acknowledged = applied, so
// a subsequent release message anywhere is safe).
func (in *Instance) sendDiffBatches(p *sim.Proc, batches map[int][]diffBatch) {
	order := make([]int, 0, len(batches))
	for home := range batches {
		order = append(order, home)
	}
	sortInts(order)
	idx := make(map[int]int, len(order))
	for len(order) > 0 {
		outstanding := 0
		for _, home := range order {
			in.sendDiff(p, home, batches[home][idx[home]])
			outstanding++
		}
		for i := 0; i < outstanding; i++ {
			in.diffAckMb.Recv(p)
		}
		var next []int
		for _, home := range order {
			idx[home]++
			if idx[home] < len(batches[home]) {
				next = append(next, home)
			}
		}
		order = next
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// sendDiff writes one encoded batch into the home's staging buffer and
// sends the Diff control message (fenced behind the buffer write, its
// lock field carrying the page count).
func (in *Instance) sendDiff(p *sim.Proc, home int, b diffBatch) {
	mem := in.mem()
	copy(mem[in.outDiff:], b.buf)
	dst := in.diffBufAddr(in.self, home)
	in.do(p, home, core.Op{Remote: dst, Local: in.outDiff, Size: len(b.buf), Kind: frame.OpWrite})
	in.sendMsg(p, home, msgDiff, b.pages, 0, nil, false)
	in.Stats.DiffMsgs++
}

// diffBufAddr returns the address of sender's diff staging area at the
// receiver (identical layout on every node).
func (in *Instance) diffBufAddr(sender, receiver int) uint64 {
	q := peerIndex(receiver, sender)
	return in.inboxDiff + uint64(q*diffBufBytes)
}

// handleDiff runs at the home: unpack, apply (charging the protocol CPU
// like GeNIMA's handler), acknowledge.
func (in *Instance) handleDiff(p *sim.Proc, from, pages int) {
	buf := in.mem()[in.diffBufAddr(from, in.self) : in.diffBufAddr(from, in.self)+diffBufBytes]
	bytes, runs := in.applyDiffBatch(buf, pages)
	costs := in.sys.Cl.Cfg.Costs
	cost := costs.Copy(bytes) + sim.Time(runs)*200*sim.Nanosecond
	p.Exec(in.node.CPUs.Proto, cost)
	in.Stats.DiffBytes += uint64(bytes)
	in.sendMsg(p, from, msgDiffAck, 0, 0, nil, true)
}
