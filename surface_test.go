package multiedge_test

import (
	"reflect"
	"testing"

	"multiedge/internal/core"
)

// surfaceCaps pin the exported methods of the protocol's three public
// types. Like the size ratchets they may only be lowered. The test sits
// outside package core, whose *ForTest hooks would otherwise count.
var surfaceCaps = []struct {
	typ reflect.Type
	max int
}{
	{reflect.TypeOf(&core.Conn{}), 20},
	{reflect.TypeOf(&core.Endpoint{}), 21},
	{reflect.TypeOf(&core.Handle{}), 6},
}

// maxOpMethods pins the Conn methods that take an Op: Do, Run and Post.
// The fourth issue form, Ring, issues what Post queued and takes none.
// An issue option (which CPU pays, a deadline, a class) is a field of
// Op, not another method.
const maxOpMethods = 3

// TestConnSurface counts the exported methods of Conn, Endpoint and
// Handle, and the Conn methods that take an Op.
func TestConnSurface(t *testing.T) {
	for _, row := range surfaceCaps {
		var names []string
		for i := 0; i < row.typ.NumMethod(); i++ {
			names = append(names, row.typ.Method(i).Name)
		}
		t.Logf("%s: %d methods: %v", row.typ.Elem().Name(), len(names), names)
		if len(names) > row.max {
			t.Errorf("%s has %d exported methods, pinned at %d: express the new one through an existing method or a field", row.typ.Elem().Name(), len(names), row.max)
		}
	}
	conn, op := reflect.TypeOf(&core.Conn{}), reflect.TypeOf(core.Op{})
	var takeOp []string
	for i := 0; i < conn.NumMethod(); i++ {
		m := conn.Method(i)
		for j := 1; j < m.Type.NumIn(); j++ {
			if m.Type.In(j) == op {
				takeOp = append(takeOp, m.Name)
			}
		}
	}
	if len(takeOp) > maxOpMethods {
		t.Errorf("Conn methods taking an Op: %v, pinned at %d: make the new option a field of Op", takeOp, maxOpMethods)
	}
}
