package hostmodel

import (
	"testing"
	"testing/quick"

	"multiedge/internal/sim"
)

func TestCopyCost(t *testing.T) {
	c := Default()
	// 1 MByte at 350 ps/B = 350 us... verify exact integer math.
	want := sim.Time(int64(1<<20) * c.CopyPsPerByte / 1000)
	if got := c.Copy(1 << 20); got != want {
		t.Errorf("Copy(1MiB) = %v, want %v", got, want)
	}
	if c.Copy(0) != 0 {
		t.Error("Copy(0) != 0")
	}
}

func TestInitiationSmallOpNearTwoMicros(t *testing.T) {
	// The paper reports ≈2 us host overhead to initiate an operation.
	c := Default()
	got := c.Initiation(8)
	if got < 1200*sim.Nanosecond || got > 3000*sim.Nanosecond {
		t.Errorf("Initiation(8B) = %v, want ≈2 us", got)
	}
}

func TestInitiationIncludesCopy(t *testing.T) {
	c := Default()
	if c.Initiation(1<<20)-c.Initiation(0) != c.Copy(1<<20) {
		t.Error("initiation does not scale with copy size")
	}
}

func TestCPUsUtilization(t *testing.T) {
	e := sim.NewEnv(1)
	cpus := NewCPUs("n0")
	var app, proto float64
	e.After(0, func() {
		a, p := cpus.App.Snapshot(e), cpus.Proto.Snapshot(e)
		cpus.App.Submit(e, 30, nil, nil)
		cpus.Proto.Submit(e, 70, nil, nil)
		e.After(100, func() { app, proto = a.Since(e, cpus.App), p.Since(e, cpus.Proto) })
	})
	e.Run()
	if app != 0.3 || proto != 0.7 {
		t.Errorf("app=%v proto=%v, want 0.3, 0.7: the two CPUs must account separately", app, proto)
	}
}

func TestCopyRateSanity(t *testing.T) {
	// The copy path must be faster than a 10-GBit/s link (else the
	// model's bottleneck story is wrong) but slower than 2x that.
	c := Default()
	bytesPerSec := 1e12 / float64(c.CopyPsPerByte)
	if bytesPerSec <= 1.25e9 {
		t.Errorf("copy bandwidth %v B/s not above 10G line rate", bytesPerSec)
	}
}

// TestCostMonotonicityProperty: initiation and copy costs are monotonic
// and additive in size — a larger operation never charges less CPU, and
// Copy is exactly linear (no hidden rounding non-monotonicity).
func TestCostMonotonicityProperty(t *testing.T) {
	c := Default()
	prop := func(aRaw, bRaw uint16) bool {
		a, b := int(aRaw), int(bRaw)
		if a > b {
			a, b = b, a
		}
		if c.Copy(a) > c.Copy(b) || c.Initiation(a) > c.Initiation(b) {
			return false
		}
		// Copy linearity within integer-division rounding of 1 ps/byte.
		sum := c.Copy(a) + c.Copy(b)
		both := c.Copy(a + b)
		diff := sum - both
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestBatchIssueAmortizes: a doorbell batch of one is already cheaper
// than the eager per-op initiation, and the per-op cost of a large batch
// falls well below it (the submission-queue win the SQ path models).
func TestBatchIssueAmortizes(t *testing.T) {
	c := Default()
	if c.BatchIssue(1, 64) >= c.Initiation(64) {
		t.Errorf("BatchIssue(1) = %v not below Initiation = %v", c.BatchIssue(1, 64), c.Initiation(64))
	}
	const n = 32
	perOp := c.BatchIssue(n, n*64) / n
	if perOp*4 >= c.Initiation(64) {
		t.Errorf("batched per-op cost %v not at least 4x below eager %v", perOp, c.Initiation(64))
	}
	// Monotonic and additive in descriptor count.
	if c.BatchIssue(2, 0)-c.BatchIssue(1, 0) != c.SQPost {
		t.Error("BatchIssue not linear in descriptor count")
	}
}
