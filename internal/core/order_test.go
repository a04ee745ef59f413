package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// refProgram is a receive-side program for the orderer: ops with
// contiguous ids from 0, each with its fence flags and its frames, whose
// sequence numbers are contiguous from 0 in op order.
type refProgram struct {
	flags  []frame.OpFlags
	frames [][]uint32 // frames[id]: the op's sequence numbers
	opOf   []int      // opOf[seq]: the op a frame belongs to
}

// header is frame seq as it reaches the orderer: a data frame of its op,
// whose Total counts frames.
func (p *refProgram) header(seq uint32) frame.Header {
	id := p.opOf[seq]
	return frame.Header{Type: frame.TypeData, Seq: seq, OpID: uint64(id), OpType: frame.OpWrite,
		OpFlags: p.flags[id], Offset: seq - p.frames[id][0], Total: uint32(len(p.frames[id]))}
}

// refOrder is §2.5's ordering rule stated the obvious way.
// A frame may be performed iff no earlier op with FenceAfter is
// incomplete and, if its own op has FenceBefore, every earlier op is
// complete; under Strict, iff every earlier sequence number has been
// performed. The forward fence counts only ops that have begun to
// arrive: the sender transmits nothing past a forward fence it has not
// seen acknowledged (arqTx.curOp), so a receiver never meets a later
// op's frame before the fenced op's, and that guarantee is the sender's
// to keep, not the receiver's to check.
type refOrder struct {
	p           *refProgram
	strict      bool
	performed   []bool   // by sequence number
	prefix      uint32   // sequence numbers [0, prefix) are all performed
	begun, done []int    // per op: frames arrived, frames performed
	pending     []uint32 // arrived, not performed
}

func newRefOrder(p *refProgram, strict bool) *refOrder {
	return &refOrder{p: p, strict: strict, performed: make([]bool, len(p.opOf)),
		begun: make([]int, len(p.frames)), done: make([]int, len(p.frames))}
}

func (r *refOrder) complete(id int) bool { return r.done[id] == len(r.p.frames[id]) }

// blocked names the rule that keeps frame seq from being performed now:
// "strict", "fence-after", "fence-before", or "" when it may be.
func (r *refOrder) blocked(seq uint32) string {
	if r.strict {
		if seq > r.prefix {
			return "strict"
		}
		return ""
	}
	id := r.p.opOf[seq]
	for j := 0; j < id; j++ {
		if r.p.flags[j]&frame.FenceAfter != 0 && r.begun[j] > 0 && !r.complete(j) {
			return "fence-after"
		}
	}
	if r.p.flags[id]&frame.FenceBefore != 0 {
		for j := 0; j < id; j++ {
			if !r.complete(j) {
				return "fence-before"
			}
		}
	}
	return ""
}

// arrive delivers frame seq and performs everything the rule then
// admits, to the fixed point.
func (r *refOrder) arrive(seq uint32) {
	r.begun[r.p.opOf[seq]]++
	r.pending = append(r.pending, seq)
	for progressed := true; progressed; {
		progressed = false
		for i := 0; i < len(r.pending); i++ {
			if s := r.pending[i]; r.blocked(s) == "" {
				r.performed[s] = true
				r.done[r.p.opOf[s]]++
				for int(r.prefix) < len(r.performed) && r.performed[r.prefix] {
					r.prefix++
				}
				r.pending = append(r.pending[:i], r.pending[i+1:]...)
				i--
				progressed = true
			}
		}
	}
}

// frontier is the lowest id of an incomplete op.
func (r *refOrder) frontier() uint64 {
	id := 0
	for id < len(r.p.frames) && r.complete(id) {
		id++
	}
	return uint64(id)
}

// ordererRig drives a bare orderer the way acceptData and applyFrame do:
// an arrival is performed if the orderer admits it, and the held frames
// it releases after it, or else it is held; performing a frame counts
// it toward its op, and the op's last frame completes it.
type ordererRig struct {
	o         orderer
	free      []*rxOp
	strict    bool
	performed []bool // by sequence number
	drained   int    // frames performed out of the held buffer
}

func (g *ordererRig) perform(h frame.Header, _ []byte, heldAt sim.Time) {
	g.performed[h.Seq] = true
	if heldAt != 0 {
		g.drained++
	}
	op := g.o.getRxOp(h, &g.free)
	if op.applied++; op.applied >= op.total && g.o.complete(op, &g.free) {
		g.free = append(g.free, op)
	}
}

func (g *ordererRig) arrive(h frame.Header, now sim.Time) {
	if g.o.tryApply(h, nil, 0, g.strict, &g.free, g.perform) {
		g.o.drain(g.strict, &g.free, g.perform)
	} else {
		g.o.held = append(g.o.held, heldFrame{h: h, heldAt: now})
	}
}

// TestOrderer walks hand-written programs through a bare orderer:
// which frames each arrival performs, the frontier, and what is held.
func TestOrderer(t *testing.T) {
	const (
		fb = frame.FenceBefore
		fa = frame.FenceAfter
	)
	for _, tc := range []struct {
		name   string
		strict bool
		ops    []frame.OpFlags
		sizes  []int
		order  []uint32
		want   []string // after each arrival: performed seqs, frontier, held
	}{
		{"unfenced ops apply on arrival", false, []frame.OpFlags{0, 0}, []int{2, 1},
			[]uint32{2, 1, 0}, []string{"[2] 0 0", "[1 2] 0 0", "[0 1 2] 2 0"}},
		{"a backward fence waits for every earlier op", false, []frame.OpFlags{0, fb}, []int{2, 1},
			[]uint32{2, 0, 1}, []string{"[] 0 1", "[0] 0 1", "[0 1 2] 2 0"}},
		{"a begun forward fence holds later ops", false, []frame.OpFlags{fa, 0, 0}, []int{2, 1, 1},
			[]uint32{1, 3, 2, 0}, []string{"[1] 0 0", "[1] 0 1", "[1] 0 2", "[0 1 2 3] 3 0"}},
		{"strict is sequence order", true, []frame.OpFlags{0, 0}, []int{1, 2},
			[]uint32{2, 1, 0}, []string{"[] 0 1", "[] 0 2", "[0 1 2] 2 0"}},
	} {
		p := buildProgram(tc.ops, tc.sizes)
		g := &ordererRig{strict: tc.strict, performed: make([]bool, len(p.opOf))}
		for i, s := range tc.order {
			g.arrive(p.header(s), sim.Time(i+1))
			var done []uint32
			for seq := range uint32(len(p.opOf)) {
				if g.performed[seq] {
					done = append(done, seq)
				}
			}
			if got := fmt.Sprintf("%v %d %d", done, g.o.frontier, len(g.o.held)); got != tc.want[i] {
				t.Errorf("%s: after seq %d: performed, frontier, held = %s, want %s", tc.name, s, got, tc.want[i])
			}
		}
	}
}

func buildProgram(flags []frame.OpFlags, sizes []int) *refProgram {
	p := &refProgram{flags: flags}
	for id, n := range sizes {
		var f []uint32
		for range n {
			f = append(f, uint32(len(p.opOf)))
			p.opOf = append(p.opOf, id)
		}
		p.frames = append(p.frames, f)
	}
	return p
}

// TestOrdererAgainstReference holds the orderer to refOrder on random
// programs: 1-40 ops of 1-4 frames, each op drawing FenceBefore and
// FenceAfter independently, every frame delivered exactly once in a
// random order, with Strict off and on. After every arrival the set of
// performed frames, the frontier and the held count must agree.
func TestOrdererAgainstReference(t *testing.T) {
	holds := map[string]int{}
	drained, programs := 0, 0
	for _, strict := range []bool{false, true} {
		for seed := int64(1); seed <= 1500; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(40)
			flags, sizes := make([]frame.OpFlags, n), make([]int, n)
			for i := range flags {
				if rng.Intn(4) == 0 {
					flags[i] |= frame.FenceBefore
				}
				if rng.Intn(4) == 0 {
					flags[i] |= frame.FenceAfter
				}
				sizes[i] = 1 + rng.Intn(4)
			}
			p := buildProgram(flags, sizes)
			order := rng.Perm(len(p.opOf))
			ref := newRefOrder(p, strict)
			g := &ordererRig{strict: strict, performed: make([]bool, len(p.opOf))}
			for i, v := range order {
				seq := uint32(v)
				if why := ref.blocked(seq); why != "" {
					holds[why]++
				}
				ref.arrive(seq)
				g.arrive(p.header(seq), sim.Time(i+1))
				if !slices.Equal(g.performed, ref.performed) || g.o.frontier != ref.frontier() || len(g.o.held) != len(ref.pending) {
					t.Fatalf("strict %v seed %d, arrival %d (seq %d): performed %v, frontier %d, %d held; reference %v, %d, %d",
						strict, seed, i, seq, g.performed, g.o.frontier, len(g.o.held),
						ref.performed, ref.frontier(), len(ref.pending))
				}
			}
			if len(g.o.rxOps) != 0 || len(g.o.fenced) != 0 {
				t.Fatalf("strict %v seed %d: %d op records and %d fences outlive the program", strict, seed, len(g.o.rxOps), len(g.o.fenced))
			}
			drained += g.drained
			programs++
		}
	}
	t.Logf("%d programs; holds %v; %d frames drained from the held buffer", programs, holds, drained)
	for _, why := range []string{"strict", "fence-after", "fence-before"} {
		if holds[why] < 100 {
			t.Errorf("%q held a frame %d times: that rule went untested", why, holds[why])
		}
	}
	if drained < 100 {
		t.Errorf("%d frames drained: the drain path went untested", drained)
	}
}
