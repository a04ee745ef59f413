package bench

import (
	"strings"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// TestOutcomeGates pins the one leak rule and the one pass rule every
// stress mode shares: any queued event, tabled conn or parked process is
// a leak, except that a run whose teardown may park daemon timers
// (serve) is judged on live events only.
func TestOutcomeGates(t *testing.T) {
	for _, tc := range []struct {
		name             string
		o                Outcome
		leakFree, passed bool
	}{
		{"clean", Outcome{DataOK: true}, true, true},
		{"live event", Outcome{DataOK: true, PendingLive: 1, PendingEvents: 1}, false, false},
		{"daemon event", Outcome{DataOK: true, PendingEvents: 2}, false, false},
		{"daemon event, daemons may linger", Outcome{DataOK: true, PendingEvents: 2, DaemonsLinger: true}, true, true},
		{"live event, daemons may linger", Outcome{DataOK: true, PendingLive: 1, PendingEvents: 3, DaemonsLinger: true}, false, false},
		{"tabled conn", Outcome{DataOK: true, ActiveConns: 1}, false, false},
		{"tabled conn, daemons may linger", Outcome{DataOK: true, ActiveConns: 1, DaemonsLinger: true}, false, false},
		{"parked process", Outcome{DataOK: true, Procs: 1}, false, false},
		{"parked process, daemons may linger", Outcome{DataOK: true, Procs: 1, DaemonsLinger: true}, false, false},
		{"corrupt data", Outcome{}, true, false},
	} {
		if got := tc.o.LeakFree(); got != tc.leakFree {
			t.Errorf("%s: LeakFree = %v, want %v", tc.name, got, tc.leakFree)
		}
		if got := tc.o.Passed(); got != tc.passed {
			t.Errorf("%s: Passed = %v, want %v", tc.name, got, tc.passed)
		}
		cols := tc.o.gateColumns()
		if strings.Contains(cols, "LEAK") == tc.leakFree || strings.Contains(cols, "CORRUPT") == tc.o.DataOK {
			t.Errorf("%s: gate columns %q disagree with the gates", tc.name, cols)
		}
		row := tc.o.benchRow("x", map[string]float64{"own": 7})
		pending, other := "pending_events", "pending_live"
		if tc.o.DaemonsLinger {
			pending, other = other, pending
		}
		_, hasPending := row.Extra[pending]
		_, hasOther := row.Extra[other]
		if !hasPending || hasOther || row.Extra["own"] != 7 ||
			row.Extra["active_conns"] != float64(tc.o.ActiveConns) || (row.Extra["data_ok"] == 1) != tc.o.DataOK {
			t.Errorf("%s: bench row extras %v", tc.name, row.Extra)
		}
	}
}

// TestReportVerdict drives the report through its failure paths, which
// no medbench run reaches while the gates hold: a failing outcome flips
// the verdict and prints its post-mortem timeline under its own row, a
// failed scenario gate is named, and the text ends with exactly one FAIL
// line; a passing report prints none.
func TestReportVerdict(t *testing.T) {
	good := FaninResult{Outcome: Outcome{Ops: 8, DataOK: true}, Conns: 1, ClientNodes: 1}
	bad := FaninResult{Outcome: Outcome{Ops: 8, DataOK: true, ActiveConns: 3}, Conns: 2, ClientNodes: 1}
	bad.Dump = obs.BuildPostMortem("fanin gate failure: test", 5*sim.Microsecond,
		[]obs.TimelineNote{{At: sim.Microsecond, Text: "injected fault"}})

	var pass report
	pass.printf("header\n")
	pass.add(good)
	if !pass.gate(true, "never printed") {
		t.Error("gate(true) reported failure")
	}
	rep := pass.done()
	if !rep.OK || strings.Contains(rep.Text, "FAIL") || len(rep.Rows) != 1 || len(rep.Outcomes) != 1 {
		t.Errorf("passing report: OK=%v rows=%d outcomes=%d text:\n%s", rep.OK, len(rep.Rows), len(rep.Outcomes), rep.Text)
	}
	if want := "header\n  " + good.String() + "\n"; rep.Text != want {
		t.Errorf("passing report text %q, want %q", rep.Text, want)
	}

	var fail report
	fail.add(good)
	fail.add(bad)
	fail.add(good)
	if fail.gate(false, "scenario gate %d", 42) {
		t.Error("gate(false) reported success")
	}
	rep = fail.done()
	if rep.OK || len(rep.Rows) != 3 || rep.Rows[1].Name != "fanin-2" || rep.Outcomes[1].Dump != bad.Dump {
		t.Fatalf("failing report: OK=%v rows=%+v", rep.OK, rep.Rows)
	}
	if n := strings.Count(rep.Text, "FAIL:"); n != 1 {
		t.Errorf("%d FAIL lines, want exactly one:\n%s", n, rep.Text)
	}
	lines := strings.Split(strings.TrimSuffix(rep.Text, "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "FAIL: ") || !strings.Contains(last, "fanin-2") || !strings.Contains(last, "scenario gate 42") {
		t.Errorf("last line %q does not name both failures", last)
	}
	badRow := strings.Index(rep.Text, bad.String())
	timeline := strings.Index(rep.Text, "injected fault")
	nextRow := strings.LastIndex(rep.Text, good.String())
	if !(badRow >= 0 && badRow < timeline && timeline < nextRow) {
		t.Errorf("timeline not under its row (row %d, timeline %d, next row %d):\n%s", badRow, timeline, nextRow, rep.Text)
	}
}

// TestStageDrainRunsOutParkedDaemons: the drain is the same with the
// registry on as off. A killed backend leaves redial give-up timers
// parked as daemon events; they must get to run out (and untable the
// dead conns) whether or not samplers had to be quiesced first — the
// per-mode drains this harness replaced stopped at live-drain when the
// registry was on and failed the leak gate.
func TestStageDrainRunsOutParkedDaemons(t *testing.T) {
	opts := ServeOptions{Clients: 64, OpsPerClient: 4, Size: 1024, Seed: 7}
	opts.KillAt = RunServe(opts).Elapsed / 2
	plain := RunServe(opts)
	opts.Obs = cluster.ObsOptions{Metrics: true}
	withObs := RunServe(opts)
	for name, r := range map[string]ServeResult{"obs off": plain, "obs on": withObs} {
		if !r.Passed() || r.Condemned == 0 {
			t.Errorf("%s: %s", name, r)
		}
	}
	if plain.String() != withObs.String() || plain.Net != withObs.Net {
		t.Errorf("registry perturbed the run:\n  off: %s\n  on:  %s", plain, withObs)
	}
}
