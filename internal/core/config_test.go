package core_test

import (
	"reflect"
	"testing"

	"multiedge/internal/core"
)

// TestConfigSurface pins how many values core.Config lets a caller set:
// every non-struct field, nested structs walked, a slice counted once.
// Each independent knob multiplies the configurations tests and
// benchmarks must cover, so the number moves only by editing it here
// on purpose — down when a knob is folded, never up by accident.
func TestConfigSurface(t *testing.T) {
	const want = 36
	var leaves func(reflect.Type) int
	leaves = func(ty reflect.Type) int {
		if ty.Kind() != reflect.Struct {
			return 1
		}
		n := 0
		for i := 0; i < ty.NumField(); i++ {
			n += leaves(ty.Field(i).Type)
		}
		return n
	}
	if got := leaves(reflect.TypeOf(core.Config{})); got != want {
		t.Errorf("core.Config has %d settable leaf fields, pinned at %d: fold a new knob into an existing mechanism, or lower the pin after deleting one", got, want)
	}
}
