package core_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"multiedge/internal/core"
)

// TestConfigSurface pins how many values core.Config lets a caller set:
// every non-struct field, nested structs walked, a slice counted once.
// Each independent knob multiplies the configurations tests and
// benchmarks must cover, so the number moves only by editing it here
// on purpose — down when a knob is folded, never up by accident.
//
// It also requires that core itself reads every field of Config and
// CCConfig: some non-test file of the package must select that very
// field (type-checked, so a same-named member of another type does not
// count). A field only other layers read is their policy, not a
// protocol parameter, and belongs with the caller. The check does not
// tell a read from a write (a selector that only assigns a default
// counts), and does not look at what the value then decides.
//
// The pin is 26 knobs plus the deprecated UseSQ, which nothing reads
// (see its doc comment).
func TestConfigSurface(t *testing.T) {
	const want = 27
	deprecated := map[string]bool{"Config.UseSQ": true}
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

	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		ok, err := build.Default.MatchFile(".", fi.Name()) // one side of each platform shim
		return err == nil && ok && !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["core"].Files {
		files = append(files, f)
	}
	info := &types.Info{Selections: make(map[*ast.SelectorExpr]*types.Selection)}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("multiedge/internal/core", fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	fields := make(map[types.Object]string)
	for _, name := range []string{"Config", "CCConfig"} {
		st := pkg.Scope().Lookup(name).Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			fields[st.Field(i)] = name + "." + st.Field(i).Name()
		}
	}
	read := make(map[string]bool)
	for _, s := range info.Selections {
		if name, ok := fields[s.Obj()]; ok {
			read[name] = true
		}
	}
	for _, name := range fields {
		switch {
		case !read[name] && !deprecated[name]:
			t.Errorf("core never reads %s: a field only other layers act on is not a core knob", name)
		case read[name] && deprecated[name]:
			t.Errorf("core reads the deprecated %s", name)
		}
	}
}
