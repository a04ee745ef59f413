package multiedge_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// maxUpperLines caps the non-test lines of the three layers over core
// together: the DSM, message passing and the service layer. Like the
// caps of TestCoreFileSizes it may not rise; lower it when they shrink.
const maxUpperLines = 3064

// TestUpperLayerSize counts lines as TestCoreFileSizes does: newlines
// in every non-test .go file of internal/dsm, internal/msg and
// internal/svc.
func TestUpperLayerSize(t *testing.T) {
	total := 0
	for _, dir := range []string{"dsm", "msg", "svc"} {
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
	if total > maxUpperLines {
		t.Errorf("internal/{dsm,msg,svc} have %d non-test lines, more than %d: delete what the change makes unnecessary", total, maxUpperLines)
	}
	t.Logf("%d non-test lines", total)
}
