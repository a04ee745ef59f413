package multiedge_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// maxUpperLines caps the non-test lines of the three layers over core
// together: the DSM, message passing and the service layer.
const maxUpperLines = 3060

// layerCaps are the size ratchets of TestUpperLayerSize: each row caps
// the non-test lines of its packages together. Like the caps of
// TestCoreFileSizes they may not rise; lower one when its packages
// shrink.
var layerCaps = []struct {
	dirs []string // under internal/
	max  int
}{
	{[]string{"dsm", "msg", "svc"}, maxUpperLines},
	{[]string{"obs"}, 1295}, // the observability layer
	{[]string{"sim"}, 1035}, // the simulation kernel
}

// TestUpperLayerSize counts lines as TestCoreFileSizes does: newlines
// in every non-test .go file of a row's packages.
func TestUpperLayerSize(t *testing.T) {
	for _, row := range layerCaps {
		total := 0
		for _, dir := range row.dirs {
			files, err := filepath.Glob(filepath.Join("internal", dir, "*.go"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				if strings.HasSuffix(f, "_test.go") {
					continue
				}
				b, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				total += bytes.Count(b, []byte("\n"))
			}
		}
		name := "internal/{" + strings.Join(row.dirs, ",") + "}"
		if total > row.max {
			t.Errorf("%s have %d non-test lines, more than %d: delete what the change makes unnecessary", name, total, row.max)
		}
		t.Logf("%s: %d non-test lines", name, total)
	}
}

// docCaps cap the lines of the two long documents. Like layerCaps they
// may not rise: a change that adds prose deletes what it makes stale.
var docCaps = map[string]int{
	"DESIGN.md":      1936,
	"EXPERIMENTS.md": 3486,
}

// TestDocSize counts newlines in each capped document.
func TestDocSize(t *testing.T) {
	for name, max := range docCaps {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(b, []byte("\n")); n > max {
			t.Errorf("%s has %d lines, more than %d: delete the prose the change makes stale", name, n, max)
		} else {
			t.Logf("%s: %d lines", name, n)
		}
	}
}
