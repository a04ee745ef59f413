package obs

import (
	"bytes"
	"strings"
	"testing"

	"multiedge/internal/sim"
)

// TestPromEscape pins the exposition-format escaping rules: exactly
// backslash, double-quote and newline are escaped; everything else —
// tabs, non-ASCII, control-adjacent runes — passes through verbatim.
func TestPromEscape(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"tab\there", "tab\there"},
		{"μs-path", "μs-path"},
		{`all "three"` + "\n" + `\`, `all \"three\"\n\\`},
	} {
		if got := promEscape(tc.in); got != tc.want {
			t.Errorf("promEscape(%q) = %q; want %q", tc.in, got, tc.want)
		}
	}
}

// TestPrometheusExportHygiene is the golden double-scrape test: a
// registry with adversarial label values must export deterministically
// (two scrapes byte-identical), in sorted order, with correctly escaped
// values.
func TestPrometheusExportHygiene(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env)
	r.AddCollector(func(emit func(Sample)) {
		emit(Sample{Name: "evil_total", Labels: []Label{L("path", `C:\tmp\"x"`+"\nend")}, Value: 3, Type: TypeCounter})
		emit(Sample{Name: "evil_total", Labels: []Label{L("path", "plain")}, Value: 1, Type: TypeCounter})
	})
	r.Gauge("zz_last", NodeLabel(1)).Add(2)
	r.Gauge("aa_first", NodeLabel(0)).Add(1)

	one := r.Gather().Prometheus()
	two := r.Gather().Prometheus()
	if !bytes.Equal(one, two) {
		t.Fatalf("double scrape differs:\n--- first\n%s\n--- second\n%s", one, two)
	}

	s := string(one)
	if !strings.Contains(s, `path="C:\\tmp\\\"x\"\nend"`) {
		t.Fatalf("label value not escaped per exposition format:\n%s", s)
	}
	if strings.Contains(s, "\nend\"") {
		t.Fatalf("raw newline leaked into a label value:\n%s", s)
	}
	// Deterministic ordering: families sorted by name, series within a
	// family sorted by labels.
	aa := strings.Index(s, "aa_first")
	ev := strings.Index(s, "evil_total")
	zz := strings.Index(s, "zz_last")
	if aa < 0 || ev < 0 || zz < 0 || !(aa < ev && ev < zz) {
		t.Fatalf("families not in sorted order (aa=%d evil=%d zz=%d):\n%s", aa, ev, zz, s)
	}
	if p, q := strings.Index(s, `path="C:`), strings.Index(s, `path="plain"`); p > q {
		t.Fatalf("series within a family not sorted:\n%s", s)
	}
}
