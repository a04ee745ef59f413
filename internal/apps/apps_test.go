package apps

import (
	"math"
	"testing"
	"testing/quick"

	"multiedge/internal/cluster"
)

// runAndVerify builds and runs the named app at test size on a cluster
// and checks the result against its sequential reference.
func runAndVerify(t *testing.T, name string, nodes int, cfg cluster.Config) Result {
	t.Helper()
	cfg.Nodes = nodes
	app := Build(name, SizeTest, nodes)
	res, sys := Run(cfg, app)
	t.Cleanup(sys.Cl.Close)
	if msg := app.Verify(sys); msg != "" {
		t.Fatalf("%s on %d nodes (%s): %s", name, nodes, cfg.Name, msg)
	}
	if res.Elapsed <= 0 {
		t.Fatalf("%s: elapsed = %v", name, res.Elapsed)
	}
	return res
}

func TestAppsCorrectSingleNode(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			runAndVerify(t, name, 1, cluster.OneLink1G(1))
		})
	}
}

func TestAppsCorrectFourNodes(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			runAndVerify(t, name, 4, cluster.OneLink1G(4))
		})
	}
}

func TestAppsCorrectThreeNodesDualLinkUnordered(t *testing.T) {
	// Odd node count plus out-of-order dual links: the adversarial
	// configuration for the DSM's ordering assumptions.
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			runAndVerify(t, name, 3, cluster.TwoLinkUnordered1G(3))
		})
	}
}

func TestAppsCorrectStrictDualLink(t *testing.T) {
	for _, name := range []string{"FFT", "Radix", "Water-SpatialFL"} {
		name := name
		t.Run(name, func(t *testing.T) {
			runAndVerify(t, name, 4, cluster.TwoLink1G(4))
		})
	}
}

func TestAppsCorrectUnderLoss(t *testing.T) {
	cfg := cluster.TwoLinkUnordered1G(2)
	cfg.Link.LossProb = 0.01
	cfg.Seed = 123
	for _, name := range []string{"FFT", "Barnes", "Raytrace"} {
		name := name
		t.Run(name, func(t *testing.T) {
			runAndVerify(t, name, 2, cfg)
		})
	}
}

func TestParallelFasterThanSerial(t *testing.T) {
	// Compute-heavy apps must show real speedup once the problem is
	// large enough to amortize synchronization (test-scale inputs are
	// deliberately tiny, so use mid-size instances here).
	builders := map[string]func(nodes int) App{
		"Barnes":         func(nodes int) App { return NewBarnes(1024, 2) },
		"Water-Nsquared": func(nodes int) App { return NewWaterNsq(256, 2, nodes) },
		"Raytrace":       func(nodes int) App { return NewRaytrace(128, 128, 16) },
	}
	for name, mk := range builders {
		seqApp := mk(1)
		seqRes, seqSys := Run(cluster.OneLink1G(1), seqApp)
		t.Cleanup(seqSys.Cl.Close)
		if msg := seqApp.Verify(seqSys); msg != "" {
			t.Fatalf("%s seq: %s", name, msg)
		}
		parApp := mk(4)
		parRes, parSys := Run(cluster.OneLink1G(4), parApp)
		t.Cleanup(parSys.Cl.Close)
		if msg := parApp.Verify(parSys); msg != "" {
			t.Fatalf("%s par: %s", name, msg)
		}
		s := Speedup(seqRes.Elapsed, parRes.Elapsed)
		if s < 2 {
			t.Errorf("%s: speedup on 4 nodes = %.2f, want > 2", name, s)
		}
	}
}

func TestBreakdownsPopulated(t *testing.T) {
	res := runAndVerify(t, "FFT", 4, cluster.OneLink1G(4))
	bd := res.MeanBreakdown()
	if bd.Compute <= 0 {
		t.Error("no compute time")
	}
	if bd.Data <= 0 {
		t.Error("no data wait despite FFT transposes")
	}
	if bd.Barrier <= 0 {
		t.Error("no barrier time")
	}
	if res.DSM.Fetches == 0 {
		t.Error("no page fetches")
	}
}

func TestLockAppsUseLocks(t *testing.T) {
	res := runAndVerify(t, "Raytrace", 4, cluster.OneLink1G(4))
	if res.DSM.LockAcquires == 0 {
		t.Error("raytrace task queue acquired no locks")
	}
	res = runAndVerify(t, "Water-SpatialFL", 4, cluster.OneLink1G(4))
	if res.DSM.LockAcquires == 0 {
		t.Error("water-spatialFL acquired no locks")
	}
}

func TestResultNetStats(t *testing.T) {
	res := runAndVerify(t, "Radix", 4, cluster.OneLink1G(4))
	if res.Net.Proto.DataFramesSent == 0 {
		t.Error("no protocol traffic recorded")
	}
	if res.ProtoCPUFrac <= 0 || res.ProtoCPUFrac > 1 {
		t.Errorf("protocol CPU fraction = %v", res.ProtoCPUFrac)
	}
}

func TestSplitRange(t *testing.T) {
	f := func(n uint16, of uint8) bool {
		N := int(n)%1000 + 1
		P := int(of)%17 + 1
		covered := 0
		prevHi := 0
		for id := 0; id < P; id++ {
			lo, hi := splitRange(N, id, P)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
			if hi-lo < N/P || hi-lo > N/P+1 {
				return false
			}
		}
		return covered == N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRngDeterministic(t *testing.T) {
	a, b := newRng(7), newRng(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	v := newRng(9).float()
	if v < 0 || v >= 1 {
		t.Fatalf("float out of range: %v", v)
	}
}

func TestFFT1DKnownValues(t *testing.T) {
	// FFT of a constant signal: all energy in bin 0.
	x := make([]complex128, 8)
	for i := range x {
		x[i] = 1
	}
	fft1d(x)
	if real(x[0]) != 8 || imag(x[0]) != 0 {
		t.Errorf("bin 0 = %v, want 8", x[0])
	}
	for i := 1; i < 8; i++ {
		if abs := real(x[i])*real(x[i]) + imag(x[i])*imag(x[i]); abs > 1e-18 {
			t.Errorf("bin %d = %v, want 0", i, x[i])
		}
	}
}

func TestOctreeMassConservation(t *testing.T) {
	r := newRng(5)
	n := 500
	pos := make([]vec3, n)
	mass := make([]float64, n)
	var total float64
	for i := range pos {
		pos[i] = vec3{r.float(), r.float(), r.float()}
		mass[i] = r.float() + 0.1
		total += mass[i]
	}
	tree := buildOctree(pos, mass)
	if d := tree.mass - total; d > 1e-9 || d < -1e-9 {
		t.Errorf("tree mass %v, want %v", tree.mass, total)
	}
}

func TestOctreeForceMatchesDirectSum(t *testing.T) {
	// With theta=0 the tree walk degenerates to the direct sum.
	r := newRng(6)
	n := 60
	pos := make([]vec3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec3{r.float(), r.float(), r.float()}
		mass[i] = 1.0 / float64(n)
	}
	tree := buildOctree(pos, mass)
	for i := 0; i < 5; i++ {
		got, _ := tree.force(pos[i], 0)
		var want vec3
		for j := range pos {
			if j == i {
				continue
			}
			d := pos[j].sub(pos[i])
			r2 := d.norm2()
			inv := 1 / math.Sqrt(r2+softening2)
			want = want.add(d.scale(mass[j] * inv * inv * inv))
		}
		if d := got.sub(want); d.norm2() > 1e-18 {
			t.Errorf("body %d force %+v, want %+v", i, got, want)
		}
	}
}

func TestPairOwnerCoversAllPairs(t *testing.T) {
	n := 40
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			o := pairOwner(i, j)
			if o != i && o != j {
				t.Fatalf("pairOwner(%d,%d) = %d", i, j, o)
			}
		}
	}
}

func TestLJForceAntisymmetric(t *testing.T) {
	a := vec3{0.1, 0.2, 0.3}
	b := vec3{0.9, 0.7, 0.5}
	fab, eab := ljForce(a, b, 1e-9)
	fba, eba := ljForce(b, a, 1e-9)
	if fab.add(fba).norm2() > 1e-20 {
		t.Error("LJ force not antisymmetric")
	}
	if eab != eba {
		t.Error("LJ energy not symmetric")
	}
}

func TestBuildUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build of unknown app did not panic")
		}
	}()
	Build("NoSuchApp", SizeTest, 4)
}

// TestVerifiersDetectCorruption mutates the result in shared memory and
// requires every application's Verify to notice — a meta-test that the
// verification itself has teeth.
func TestVerifiersDetectCorruption(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			app := Build(name, SizeTest, 2)
			_, sys := Run(cluster.OneLink1G(2), app)
			t.Cleanup(sys.Cl.Close)
			if msg := app.Verify(sys); msg != "" {
				t.Fatalf("clean run failed verify: %s", msg)
			}
			// Flip bytes densely across the home copies of the shared
			// region (where all application data lives).
			// Flip the high (exponent) byte of every float-sized word so
			// even tolerance-based verifiers must notice.
			base, span := sys.Base(), sys.SharedBytes()
			for _, in := range sys.Insts {
				m := in.Mem()
				for i := 6; i < span; i += 64 {
					m[base+uint64(i)] ^= 0x7f
				}
			}
			if msg := app.Verify(sys); msg == "" {
				t.Fatalf("%s: verifier missed injected corruption", name)
			}
		})
	}
}
