package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

// The size ratchet of this package: a connection's state is split by
// mechanism into files of at most maxCoreFileLines lines, the package
// has at most maxCoreLines non-test lines, one Conn costs at most
// maxConnBytes before it builds anything by use, and the Handle an
// eager operation allocates holds at most maxHandleBytes. None of the
// limits may rise; lower them when the code shrinks.
const (
	maxCoreFileLines = 800
	maxCoreLines     = 5930
	maxConnBytes     = 504
	maxHandleBytes   = 32
)

// TestCoreFileSizes fails when a non-test source file of the package
// grows past maxCoreFileLines, the package's non-test files together
// past maxCoreLines, the Conn struct past maxConnBytes, or the Handle
// past maxHandleBytes.
func TestCoreFileSizes(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		n := bytes.Count(b, []byte("\n"))
		if n > maxCoreFileLines {
			t.Errorf("%s has %d lines, more than %d: split it by mechanism", f, n, maxCoreFileLines)
		}
		total += n
	}
	if total > maxCoreLines {
		t.Errorf("the package has %d non-test lines, more than %d: delete what the change makes unnecessary", total, maxCoreLines)
	}
	t.Logf("%d non-test lines", total)
	if n := unsafe.Sizeof(Conn{}); n > maxConnBytes {
		t.Errorf("Conn is %d B, more than %d: order its fields to avoid padding, or move cold state behind a pointer built by use", n, maxConnBytes)
	}
	t.Logf("Conn is %d B", unsafe.Sizeof(Conn{}))
	if n := unsafe.Sizeof(Handle{}); n > maxHandleBytes {
		t.Errorf("Handle is %d B, more than %d: it holds only what its methods read", n, maxHandleBytes)
	}
}
