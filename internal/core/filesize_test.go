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
// mechanism into files of at most maxCoreFileLines lines, and one Conn
// costs at most maxConnBytes before it builds anything by use. Neither
// limit may rise; lower them when the code shrinks.
const (
	maxCoreFileLines = 800
	maxConnBytes     = 720
)

// TestCoreFileSizes fails when a non-test source file of the package
// grows past maxCoreFileLines, or the Conn struct past maxConnBytes.
func TestCoreFileSizes(t *testing.T) {
	files, err := filepath.Glob("*.go")
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
		if n := bytes.Count(b, []byte("\n")); n > maxCoreFileLines {
			t.Errorf("%s has %d lines, more than %d: split it by mechanism", f, n, maxCoreFileLines)
		}
	}
	if n := unsafe.Sizeof(Conn{}); n > maxConnBytes {
		t.Errorf("Conn is %d B, more than %d: order its fields to avoid padding, or move cold state behind a pointer built by use", n, maxConnBytes)
	}
	t.Logf("Conn is %d B", unsafe.Sizeof(Conn{}))
}
