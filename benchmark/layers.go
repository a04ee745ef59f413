package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/dsm"
	"multiedge/internal/frame"
	"multiedge/internal/msg"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
	"multiedge/internal/svc"
)

// Layer drivers: tight loops over each layer's exported functions, timed
// per batch of layerBatch calls. The figure reported is the fastest batch,
// per call; where the call also takes virtual time, that is reported too.

const layerBatch = 1024

// sink keeps results alive so that the compiler cannot drop the calls.
var sink int

// best runs a batch of layerBatch calls the given number of times and
// returns the wall time of the fastest run, per call.
func best(batches int, batch func()) float64 {
	return bestOf(batches, layerBatch, batch)
}

func bestOf(batches, calls int, batch func()) float64 {
	lo := math.Inf(1)
	for range batches {
		t := time.Now()
		batch()
		lo = min(lo, float64(time.Since(t)))
	}
	return lo / float64(calls)
}

// bestInProc is best for calls that block a simulated process: it runs
// batches of `calls` calls from a process of env, after one warm-up call,
// and also returns the mean virtual time one call took.
func bestInProc(env *sim.Env, batches, calls int, call func(p *sim.Proc) error) (wallNs, virtUs float64, err error) {
	env.Go("driver", func(p *sim.Proc) {
		if err = call(p); err != nil {
			return
		}
		v0 := env.Now()
		wallNs = bestOf(batches, calls, func() {
			for range calls {
				if e := call(p); e != nil && err == nil {
					err = e
				}
			}
		})
		virtUs = float64(env.Now()-v0) / 1e3 / float64(batches*calls)
	})
	env.Run()
	return wallNs, virtUs, err
}

// runLayers runs every driver. m receives the metrics; the first error of
// each failing driver is returned.
func runLayers(quick bool) (m map[string]float64, errs []string) {
	batches := 16
	if quick {
		batches = 2
	}
	m = map[string]float64{}
	note := func(name string, err error) {
		if err != nil {
			errs = append(errs, fmt.Sprintf("layer driver %s: %v", name, err))
		}
	}
	simDrivers(m, batches)
	frameDrivers(m, batches)
	physDrivers(m, batches)

	var err error
	m["core.write64_ns"], m["core.write64_virt_us"], err = coreDriver(batches, layerBatch, nil, writeCall)
	note("core.write64", err)
	m["core.read64_ns"], m["core.read64_virt_us"], err = coreDriver(batches, layerBatch, nil, readCall)
	note("core.read64", err)
	sq, _, err := coreDriver(batches, layerBatch/smallBatch, smallmixProfile, sqCall)
	m["core.sq64_ns"] = sq / smallBatch
	note("core.sq64", err)
	bulk, _, err := coreDriver(batches, 1, nil, bulkCall)
	m["core.bulk_frame_ns"] = bulk / layerBatch
	note("core.bulk_frame", err)
	on, _, err := coreDriver(batches, layerBatch, []setting{{"Obs.Recorder", true}}, writeCall)
	m["obs.recorder_on_pct"] = 100 * (ratio(on, m["core.write64_ns"]) - 1)
	note("obs.recorder_on", err)

	m["svc.call64_ns"], m["svc.call64_virt_us"], err = svcDriver(batches)
	note("svc.call64", err)
	m["dsm.fetch_ns"], m["dsm.fetch_virt_us"], err = dsmDriver(min(batches, 4))
	note("dsm.fetch", err)
	m["msg.pingpong8_ns"], m["msg.pingpong8_virt_us"], err = msgDriver(batches)
	note("msg.pingpong8", err)
	return m, errs
}

func nop() {}

func simDrivers(m map[string]float64, batches int) {
	// One event scheduled and executed, with a shallow and a deep heap of
	// other events pending behind it.
	dispatch := func(pending int) float64 {
		env := sim.NewEnv(1)
		for i := range pending {
			env.SchedAt(sim.Time(1<<40)+sim.Time(i), nop)
		}
		return best(batches, func() {
			for i := range layerBatch {
				env.SchedAfter(sim.Time(i+1), nop)
			}
			env.RunUntil(env.Now() + layerBatch)
		})
	}
	m["sim.dispatch_ns"] = dispatch(1 << 10)
	m["sim.dispatch_deep_ns"] = dispatch(1 << 16)

	// A heap timer stopped and re-armed, as an ACK or RTO timer is on every
	// frame, including the later removal of the cancelled event.
	env := sim.NewEnv(1)
	var t *sim.Timer
	m["sim.timer_stop_rearm_ns"] = best(batches, func() {
		for range layerBatch {
			t = env.Rearm(t, sim.Millisecond, nop)
		}
		env.RunUntil(env.Now() + 2*sim.Millisecond)
	})

	// A wheel timer armed and fired, timers spread over 100 buckets.
	env = sim.NewEnv(1)
	w := sim.NewWheel(env, 50*sim.Microsecond)
	m["sim.wheel_arm_fire_ns"] = best(batches, func() {
		for i := range layerBatch {
			w.After(sim.Time(i%100)*50*sim.Microsecond, nop)
		}
		env.Run()
	})

	// One process parked and resumed: two goroutine handoffs. With more
	// than one P the handoff crosses threads, which is why every measured
	// run uses GOMAXPROCS(1).
	procSwitch := func() float64 {
		env := sim.NewEnv(1)
		ns, _, _ := bestInProc(env, batches, layerBatch, func(p *sim.Proc) error {
			p.Sleep(1)
			return nil
		})
		return ns
	}
	m["sim.proc_switch_ns"] = procSwitch()
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	m["sim.proc_switch_mp_ns"] = procSwitch()
	runtime.GOMAXPROCS(prev)
}

func frameDrivers(m map[string]float64, batches int) {
	pb := frame.GetBuf()
	defer frame.PutBuf(pb)
	dst, src := frame.NewAddr(1, 0), frame.NewAddr(0, 0)
	h := frame.Header{Type: frame.TypeData, ConnID: 7, Seq: 41, Ack: 40, HasAck: true,
		OpID: 9, OpType: frame.OpWrite, Remote: 4096}
	payload := make([]byte, frame.MaxPayload)
	fill(payload, 1)
	for _, c := range []struct {
		name string
		size int
	}{{"64B", 64}, {"1500B", frame.MaxPayload}} {
		h.Total = uint32(c.size)
		m["frame.encode_"+c.name+"_ns"] = best(batches, func() {
			for range layerBatch {
				b, _ := frame.EncodeInto(pb.Bytes(), dst, src, &h, payload[:c.size])
				sink += len(b)
			}
		})
		buf := frame.MustEncode(dst, src, &h, payload[:c.size])
		m["frame.decode_"+c.name+"_ns"] = best(batches, func() {
			for range layerBatch {
				_, _, _, p, _ := frame.Decode(buf)
				sink += len(p)
			}
		})
	}
	subs := make([]frame.SubOp, 16)
	for i := range subs {
		subs[i] = frame.SubOp{OpID: uint64(i), Remote: uint64(64 * i), Data: payload[64*i : 64*i+64]}
	}
	m["frame.multi_encode_ns"] = best(batches, func() {
		for range layerBatch {
			b, _ := frame.EncodeMultiPayloadInto(pb.Bytes(), subs)
			sink += len(b)
		}
	})
}

// stubHost is the smallest host a NIC can have: it polls every received
// frame, releases it, and retires transmit completions.
type stubHost struct {
	env  *sim.Env
	rxAt sim.Time // when the last frame was taken off a NIC
}

func (h *stubHost) Interrupt(n *phys.NIC) {
	for f := n.PollRxOne(); f != nil; f = n.PollRxOne() {
		h.rxAt = h.env.Now()
		f.Release()
	}
	n.TakeTxDone()
}

// physDrivers time one hop: NIC, uplink, switch, downlink, NIC, interrupt.
// The wall time includes encoding the frame into a pooled buffer.
func physDrivers(m map[string]float64, batches int) {
	env := sim.NewEnv(1)
	host := &stubHost{env: env}
	sp := phys.DefaultSwitchParams()
	sw := phys.NewSwitch(env, "sw", sp)
	station := func(node int) *phys.NIC {
		addr := frame.NewAddr(node, 0)
		nic := phys.NewNIC(env, fmt.Sprintf("n%d", node), addr, phys.DefaultNICParams())
		nic.AttachUplink(sw.AttachStation(addr, nic, phys.Gigabit(), sp.QueueCap))
		nic.SetHost(host)
		return nic
	}
	a, b := station(0), station(1)
	h := frame.Header{Type: frame.TypeData, OpType: frame.OpWrite}
	payload := make([]byte, frame.MaxPayload)
	send := func(size int) {
		pb := frame.GetBuf()
		buf := frame.MustEncodeInto(pb.Bytes(), b.Addr(), a.Addr(), &h, payload[:size])
		a.Transmit(phys.NewPooledFrame(pb, buf, b.Addr(), a.Addr()))
	}
	const burst = 64 // well below the switch queue
	hop := func(size int) float64 {
		return best(batches, func() {
			for range layerBatch / burst {
				for range burst {
					send(size)
				}
				env.Run()
			}
		})
	}
	m["phys.hop_64B_ns"] = hop(64)
	e0 := env.Executed()
	m["phys.hop_1500B_ns"] = hop(frame.MaxPayload)
	m["phys.hop_events"] = float64(env.Executed()-e0) / float64(batches*layerBatch)
	t0 := env.Now()
	send(64)
	env.Run()
	m["phys.hop_64B_virt_us"] = float64(host.rxAt-t0) / 1e3
}

// coreDriver times call on a conn between the two nodes of a paper-profile
// 10 GbE cluster with the extra settings applied.
func coreDriver(batches, calls int, extra []setting, call func(cl *cluster.Cluster, c *core.Conn) func(p *sim.Proc) error) (wallNs, virtUs float64, err error) {
	cfg := cluster.OneLink10G(2)
	for _, name := range applyProfile(&cfg, extra) {
		noteMissing(name)
	}
	cl := cluster.New(cfg)
	c, _ := cl.Pair()
	return bestInProc(cl.Env, batches, calls, call(cl, c))
}

func waitOp(p *sim.Proc, h *core.Handle, err error) error {
	if err != nil {
		return err
	}
	h.Wait(p)
	return h.Err()
}

func writeCall(cl *cluster.Cluster, c *core.Conn) func(p *sim.Proc) error {
	src, dst := cl.Nodes[0].EP.Alloc(64), cl.Nodes[1].EP.Alloc(64)
	op := core.Op{Remote: dst, Local: src, Size: 64, Kind: frame.OpWrite, Flags: frame.Solicit}
	return func(p *sim.Proc) error {
		h, err := c.Do(p, op)
		return waitOp(p, h, err)
	}
}

func readCall(cl *cluster.Cluster, c *core.Conn) func(p *sim.Proc) error {
	local, remote := cl.Nodes[0].EP.Alloc(64), cl.Nodes[1].EP.Alloc(64)
	op := core.Op{Remote: remote, Local: local, Size: 64, Kind: frame.OpRead}
	return func(p *sim.Proc) error {
		h, err := c.Do(p, op)
		return waitOp(p, h, err)
	}
}

// sqCall is one doorbell batch of smallBatch coalescable 64 B writes.
func sqCall(cl *cluster.Cluster, c *core.Conn) func(p *sim.Proc) error {
	src, dst := cl.Nodes[0].EP.Alloc(64*smallBatch), cl.Nodes[1].EP.Alloc(64*smallBatch)
	return func(p *sim.Proc) error {
		for k := range smallBatch {
			op := core.Op{Remote: dst + uint64(64*k), Local: src + uint64(64*k), Size: 64, Kind: frame.OpWrite}
			if k == smallBatch-1 {
				op.Flags = frame.Solicit
			}
			if err := c.Post(op); err != nil {
				return err
			}
		}
		if _, err := c.Ring(p); err != nil {
			return err
		}
		for range smallBatch {
			if err := c.WaitCQ(p).Err; err != nil {
				return err
			}
		}
		return nil
	}
}

// bulkCall is one write that is cut into layerBatch full frames.
func bulkCall(cl *cluster.Cluster, c *core.Conn) func(p *sim.Proc) error {
	size := layerBatch * frame.MaxPayload
	src, dst := cl.Nodes[0].EP.Alloc(size), cl.Nodes[1].EP.Alloc(size)
	op := core.Op{Remote: dst, Local: src, Size: size, Kind: frame.OpWrite, Flags: frame.Solicit}
	return func(p *sim.Proc) error {
		h, err := c.Do(p, op)
		return waitOp(p, h, err)
	}
}

// svcDriver times a 64 B write through a service stub with one backend;
// minus core.write64 it is the service layer's own cost.
func svcDriver(batches int) (wallNs, virtUs float64, err error) {
	cl := cluster.New(cluster.OneLink10G(2))
	reg := svc.NewRegistry()
	if _, err := reg.Register("bench", 4096, cl.Nodes[1].EP); err != nil {
		return 0, 0, err
	}
	stub, err := svc.Connect(cl.Nodes[0].EP, reg, "bench", svc.Options{})
	if err != nil {
		return 0, 0, err
	}
	op := core.Op{Local: cl.Nodes[0].EP.Alloc(64), Size: 64, Kind: frame.OpWrite, Flags: frame.Solicit}
	return bestInProc(cl.Env, batches, layerBatch, func(p *sim.Proc) error { return stub.Call(p, 1, op) })
}

// dsmDriver times a read fault: every call touches a fresh page homed at
// the other node, which the DSM fetches with one remote read.
func dsmDriver(batches int) (wallNs, virtUs float64, err error) {
	pages := batches*layerBatch + 1
	cfg := cluster.OneLink10G(2)
	cfg.Core.MemBytes = pages*dsm.PageSize + 8<<20
	cl := cluster.New(cfg)
	sys := dsm.New(cl, cl.FullMesh(), dsm.Config{SharedBytes: pages * dsm.PageSize})
	addr := sys.AllocAt(pages*dsm.PageSize, 1)
	return bestInProc(cl.Env, batches, layerBatch, func(p *sim.Proc) error {
		sink += len(sys.Insts[0].RSlice(p, addr, 8))
		addr += dsm.PageSize
		return nil
	})
}

// msgDriver times an 8 B message sent to the other rank and echoed back.
func msgDriver(batches int) (wallNs, virtUs float64, err error) {
	cl := cluster.New(cluster.OneLink10G(2))
	comms := msg.New(cl, cl.FullMesh())
	cl.Env.Go("echo", func(p *sim.Proc) {
		for range batches*layerBatch + 1 {
			comms[1].Send(p, 0, 1, comms[1].Recv(p, 0, 1))
		}
	})
	payload := make([]byte, 8)
	return bestInProc(cl.Env, batches, layerBatch, func(p *sim.Proc) error {
		comms[0].Send(p, 1, 1, payload)
		sink += len(comms[0].Recv(p, 1, 1))
		return nil
	})
}
