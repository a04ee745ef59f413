package multiedge_test

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"multiedge/internal/race"
)

// deadAllow names the declarations TestNoDeadCode reports that stay, each
// with the reason; what only they reach stays with them. Every entry is
// a hook that tests in another package need, since a _test.go file
// cannot export across packages. An entry that becomes reachable, or
// whose declaration is gone, fails the test, so the list only shrinks;
// it may hold at most 10.
var deadAllow = map[string]string{
	"phys.OutPort.SetDropFilter": "exact loss injection for five core test files",
	"core.LiveMemBytes":          "cluster and bench tests check that Close unmaps node memory",
	"frame.SetPoolDebug":         "core's allocation tests poison released buffers",
	"race.Enabled":               "allocation assertions in frame, core and here skip under -race",
	"obs.Recorder.Count":         "core's TestEventsMatchStats compares per-kind totals to Stats",
	"obs.Recorder.Bytes":         "likewise for byte totals",
	"obs.Snapshot.Get":           "cluster and core tests read one sample of a gathered snapshot",
	"chaos.Runner.BlackholePair": "the relay tests of svc and the facade sever one pair of nodes",
}

// TestNoDeadCode fails on any declaration in internal/ that no program of
// the repository reaches. The roots are every declaration of a package
// main (cmd/, examples/ and the benchmark module, loaded through its
// replace directive), the exported names of the facade together with the
// exported methods and fields of every type it aliases, init functions,
// package-level variable initialisers and `var _ I = x` assertions. Test
// files are never roots. From a live declaration, everything its body or
// spec names is live; a method of a live type is also live when an
// interface the program calls through has a method of that name and
// signature (String and Error always count), and a struct field is live
// when live code names it (read, write or literal key). The fields of
// structs read by reflection are not checked. The check runs once for
// each of linux, darwin and windows and takes the union, so code only
// one platform's files reach stays.
func TestNoDeadCode(t *testing.T) {
	if race.Enabled {
		t.Skip("a static check; the race build only makes it slower")
	}
	if len(deadAllow) > 10 {
		t.Errorf("deadAllow has %d entries, at most 10: delete code rather than list it", len(deadAllow))
	}
	r, err := findDead(deadSpec{
		dir:   ".",
		scope: "multiedge/internal/",
		reflected: []string{
			"multiedge/internal/core.Stats",     // obs tags walk it
			"multiedge/internal/core.Config",    // the benchmark's setField walks it by name
			"multiedge/internal/cluster.Config", // likewise
		},
		others: []string{"benchmark"},
		allow:  deadAllow,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.problems {
		t.Error(p)
	}
	t.Logf("%d declarations checked on %s; %d allowlisted", r.checked, strings.Join(deadPlatforms, ", "), len(deadAllow))
}

// TestNoDeadCodeFixture plants one case of each rule in testdata/deadcode
// and checks each verdict, then checks that an allowlist keeps what it
// names and fails when an entry is stale.
func TestNoDeadCodeFixture(t *testing.T) {
	if race.Enabled {
		t.Skip("a static check; the race build only makes it slower")
	}
	check := func(allow map[string]string) *deadResult {
		t.Helper()
		r, err := findDead(deadSpec{
			dir:       "testdata/deadcode",
			scope:     "fixture/internal/",
			reflected: []string{"fixture/internal/lib.Reflected"},
			others:    []string{"testdata/deadcode/tool"},
			allow:     allow,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := check(nil)
	want := map[string]bool{
		"lib.deadFunc":                true,  // nothing calls it
		"lib.helper.deadMethod":       true,  // a method nothing calls
		"lib.deadConst":               true,  // a const nothing names
		"lib.onlyTested":              true,  // only a _test.go calls it
		"lib.helper.unread":           true,  // a field nothing names
		"lib.deadType":                true,  // a type nothing names
		"lib.Thing.unexportedOfAlias": true,  // only exported methods of an aliased type are roots
		"lib.hook":                    true,  // dead until allowlisted below
		"lib.hookHelper":              true,  // only lib.hook calls it
		"lib.deadType.methodOfDead":   false, // reported with its type, not on its own
		"lib.helper":                  false,
		"lib.helper.Run":              false, // satisfies the runner interface Drive calls through
		"lib.helper.tag":              false, // a composite-literal key names it
		"lib.pair.b":                  false, // an unkeyed literal sets it
		"lib.Thing.Exported":          false, // a method of a type the facade aliases
		"lib.Thing.String":            false, // String always counts
		"lib.windowsOnly":             false, // only a //go:build windows file calls it
		"lib.Reflected.Field":         false, // reflection reads it
		"lib.ToolOnly":                false, // the tool module calls it through its replace
		"lib.initOnly":                false, // an init function calls it
		"lib.assertOnly.M":            false, // a var _ assertion needs it
	}
	for name, dead := range want {
		if got := r.dead[name] != nil; got != dead {
			t.Errorf("%s: dead = %v, want %v", name, got, dead)
		}
	}
	for name := range r.dead {
		if !want[name] {
			t.Errorf("%s: dead, and not a planted case", name)
		}
	}

	// Allowlisting a type keeps none of its methods.
	allow := map[string]string{"lib.deadType.methodOfDead": "a hook"}
	for name, dead := range want {
		if dead && name != "lib.hookHelper" {
			allow[name] = "a hook"
		}
	}
	if r := check(allow); len(r.problems) > 0 {
		t.Errorf("a current allowlist fails: %q", r.problems)
	}

	r = check(map[string]string{"lib.deadFunc": "a hook", "lib.Drive": "stale", "lib.gone": "stale"})
	for _, stale := range []string{"lib.Drive: allowlisted but reachable", "lib.gone: allowlisted but no longer declared"} {
		if !slices.ContainsFunc(r.problems, func(p string) bool { return strings.HasPrefix(p, stale) }) {
			t.Errorf("a stale allowlist entry passes; want %q in %q", stale, r.problems)
		}
	}
}

// deadPlatforms are the GOOS values the check takes the union over.
var deadPlatforms = []string{"linux", "darwin", "windows"}

type deadSpec struct {
	dir       string   // root of the module to check; its root package is the facade
	scope     string   // import-path prefix of the packages whose declarations are checked
	reflected []string // "path.Type": structs whose fields reflection reads
	others    []string // other modules, whose non-test code is a root, reaching dir through a replace
	allow     map[string]string
}

// deadDecl locates a checked declaration.
type deadDecl struct {
	pos    token.Position
	lines  int
	parent string // the type of a method or field
}

type deadResult struct {
	// dead holds what nothing reaches, the allowlist included: a method
	// or field of a dead type is left to its type.
	dead     map[string]*deadDecl
	problems []string // each dead declaration, then each allowlist entry that is reachable or gone
	checked  int
}

func findDead(spec deadSpec) (*deadResult, error) {
	root, err := filepath.Abs(spec.dir)
	if err != nil {
		return nil, err
	}
	rootPath, _, err := readGoMod(root)
	if err != nil {
		return nil, err
	}
	mods := []deadModule{{rootPath, root}}
	for _, o := range spec.others {
		dir, err := filepath.Abs(o)
		if err != nil {
			return nil, err
		}
		path, replace, err := readGoMod(dir)
		if err != nil {
			return nil, err
		}
		if to, ok := replace[rootPath]; !ok || filepath.Join(dir, to) != root {
			return nil, fmt.Errorf("%s does not replace %s with %s", o, rootPath, root)
		}
		mods = append(mods, deadModule{path, dir})
	}
	// Longest path first, so a nested module's prefix wins.
	slices.SortFunc(mods, func(a, b deadModule) int { return len(b.path) - len(a.path) })

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil) // one importer for every pass: the standard library is checked once
	parsed := make(map[string]*ast.File)
	live := make(map[string]bool) // reached from the roots
	kept := make(map[string]bool) // reached only through the allowlist
	decls := make(map[string]*deadDecl)
	for _, goos := range deadPlatforms {
		ctx := build.Default
		ctx.GOOS = goos
		ctx.CgoEnabled = false
		p := &deadPass{fset: fset, ctx: ctx, std: std, mods: mods, parsed: parsed, pkgs: make(map[string]*deadPkg), spec: spec}
		for _, m := range mods {
			if err := p.loadTree(m); err != nil {
				return nil, err
			}
		}
		if p.err != nil && goos == runtime.GOOS {
			return nil, fmt.Errorf("type-checking for %s: %v", goos, p.err)
		}
		p.mark(rootPath, live, kept, decls)
	}
	unreached := func(name string) bool { return decls[name] != nil && !live[name] && !kept[name] }
	r := &deadResult{dead: make(map[string]*deadDecl), checked: len(decls)}
	for _, name := range slices.Sorted(maps.Keys(decls)) {
		d := decls[name]
		if !unreached(name) || unreached(d.parent) {
			continue
		}
		r.dead[name] = d
		file, err := filepath.Rel(root, d.pos.Filename)
		if err != nil {
			file = d.pos.Filename
		}
		r.problems = append(r.problems, fmt.Sprintf("%s (%s:%d, %d lines): nothing reaches it; delete it, move it into the _test.go file that uses it, or allowlist it with a reason",
			name, file, d.pos.Line, d.lines))
	}
	for _, name := range slices.Sorted(maps.Keys(spec.allow)) {
		switch {
		case strings.TrimSpace(spec.allow[name]) == "":
			r.problems = append(r.problems, name+": an allowlist entry needs a reason")
		case decls[name] == nil:
			r.problems = append(r.problems, name+": allowlisted but no longer declared; drop the entry")
		case live[name]:
			r.problems = append(r.problems, name+": allowlisted but reachable; drop the entry")
		}
	}
	return r, nil
}

type deadModule struct{ path, dir string }

// readGoMod returns a go.mod's module path and its single-line replace
// directives that point at a directory.
func readGoMod(dir string) (path string, replace map[string]string, err error) {
	f, err := os.Open(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	replace = make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 2 && fields[0] == "module":
			path = fields[1]
		case len(fields) == 4 && fields[0] == "replace" && fields[2] == "=>":
			replace[fields[1]] = fields[3]
		}
	}
	if path == "" {
		return "", nil, fmt.Errorf("%s/go.mod names no module", dir)
	}
	return path, replace, sc.Err()
}

// deadPass type-checks every package for one platform.
type deadPass struct {
	fset   *token.FileSet
	ctx    build.Context
	std    types.Importer
	mods   []deadModule
	parsed map[string]*ast.File
	pkgs   map[string]*deadPkg
	spec   deadSpec
	err    error // the first type error
}

type deadPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func (p *deadPass) Import(path string) (*types.Package, error) {
	for _, m := range p.mods {
		if path == m.path || strings.HasPrefix(path, m.path+"/") {
			pk, err := p.load(path, filepath.Join(m.dir, strings.TrimPrefix(path, m.path)))
			if err != nil {
				return nil, err
			}
			return pk.pkg, nil
		}
	}
	return p.std.Import(path)
}

// loadTree loads every package of a module, leaving out testdata and
// nested modules.
func (p *deadPass) loadTree(m deadModule) error {
	return filepath.WalkDir(m.dir, func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if dir != m.dir {
			if n := e.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, _ := filepath.Rel(m.dir, dir)
		path := m.path
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		_, err = p.load(path, dir)
		var none *build.NoGoError
		if errors.As(err, &none) {
			return nil
		}
		return err
	})
}

func (p *deadPass) load(path, dir string) (*deadPkg, error) {
	if pk := p.pkgs[path]; pk != nil {
		return pk, nil
	}
	bp, err := p.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	pk := &deadPkg{info: &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}}
	for _, name := range bp.GoFiles {
		file := filepath.Join(dir, name)
		f := p.parsed[file]
		if f == nil {
			if f, err = parser.ParseFile(p.fset, file, nil, parser.ParseComments|parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			p.parsed[file] = f
		}
		pk.files = append(pk.files, f)
	}
	conf := types.Config{Importer: p, Error: func(err error) {
		// Another platform's files may name symbols the host's standard
		// library lacks; only the host pass must check cleanly.
		if p.err == nil {
			p.err = err
		}
	}}
	pk.pkg, _ = conf.Check(path, p.fset, pk.files, pk.info)
	p.pkgs[path] = pk
	return pk, nil
}

// mark finds what this platform's programs reach. It adds every checked
// declaration to decls, every one the roots reach to live, and every
// further one the allowlisted declarations reach to kept, all by name.
func (p *deadPass) mark(facade string, live, kept map[string]bool, decls map[string]*deadDecl) {
	refs := make(map[types.Object][]types.Object)
	names := make(map[types.Object]string)
	methods := make(map[string][]*types.Func) // concrete methods by name
	reflected := make(map[string]bool)
	for _, r := range p.spec.reflected {
		reflected[r] = true
	}
	ours := func(o types.Object) bool {
		if o.Pkg() == nil {
			return false
		}
		for _, m := range p.mods {
			if path := o.Pkg().Path(); path == m.path || strings.HasPrefix(path, m.path+"/") {
				return true
			}
		}
		return false
	}

	seen := make(map[types.Object]bool)
	var work []types.Object
	var asserted []*types.Func
	mark := func(o types.Object) {
		if o != nil && !seen[o] {
			seen[o] = true
			work = append(work, o)
		}
	}
	declare := func(o types.Object, name, parent string, from, to token.Pos) {
		if o == nil {
			return
		}
		names[o] = name
		if decls[name] == nil {
			start, end := p.fset.Position(from), p.fset.Position(to)
			decls[name] = &deadDecl{pos: start, lines: end.Line - start.Line + 1, parent: parent}
		}
	}

	for path, pk := range p.pkgs {
		if pk.pkg == nil {
			continue
		}
		main := pk.pkg.Name() == "main"
		checked := strings.HasPrefix(path, p.spec.scope)
		short := strings.TrimPrefix(path, p.spec.scope)
		uses := func(n ast.Node) []types.Object {
			var out []types.Object
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if o := pk.info.Uses[n]; o != nil {
						out = append(out, origin(o))
					}
				case *ast.CompositeLit:
					// An unkeyed struct literal sets every field.
					t := pk.info.Types[n].Type
					if t == nil || len(n.Elts) == 0 {
						break
					}
					if st, ok := t.Underlying().(*types.Struct); ok {
						if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
							for i := 0; i < st.NumFields(); i++ {
								out = append(out, origin(st.Field(i)))
							}
						}
					}
				}
				return true
			})
			return out
		}
		for _, f := range pk.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					o := pk.info.Defs[d.Name]
					if o == nil {
						continue
					}
					refs[o] = uses(d)
					from := d.Pos()
					if d.Doc != nil {
						from = d.Doc.Pos()
					}
					if d.Recv == nil {
						if main || d.Name.Name == "init" {
							mark(o)
						} else if checked {
							declare(o, short+"."+d.Name.Name, "", from, d.End())
						}
						continue
					}
					m := o.(*types.Func)
					recv := recvObj(m)
					if recv == nil { // a receiver that did not type-check
						continue
					}
					methods[m.Name()] = append(methods[m.Name()], m)
					if main {
						mark(o)
					} else if checked {
						declare(o, short+"."+recv.Name()+"."+d.Name.Name, short+"."+recv.Name(), from, d.End())
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						from := s.Pos()
						if doc := specDoc(s); doc != nil {
							from = doc.Pos()
						} else if len(d.Specs) == 1 && d.Doc != nil {
							from = d.Doc.Pos()
						}
						switch s := s.(type) {
						case *ast.TypeSpec:
							o := pk.info.Defs[s.Name]
							if o == nil {
								continue
							}
							refs[o] = uses(s)
							if main {
								mark(o)
								continue
							}
							if !checked {
								continue
							}
							name := short + "." + s.Name.Name
							declare(o, name, "", from, s.End())
							st, ok := o.Type().Underlying().(*types.Struct)
							if !ok || o.(*types.TypeName).IsAlias() || reflected[path+"."+s.Name.Name] {
								continue
							}
							for i := 0; i < st.NumFields(); i++ {
								fv := st.Field(i)
								if fv.Embedded() || fv.Name() == "_" {
									continue
								}
								declare(fv, name+"."+fv.Name(), name, fv.Pos(), fv.Pos())
							}
						case *ast.ValueSpec:
							r := uses(s)
							for _, n := range s.Names {
								o := pk.info.Defs[n]
								if o == nil {
									continue
								}
								refs[o] = r
								if main || n.Name == "_" || (d.Tok == token.VAR && len(s.Values) > 0) {
									// An initialiser runs whether or not
									// the variable is read.
									for _, x := range r {
										mark(x)
									}
								}
								switch {
								case n.Name == "_":
									// var _ I = x keeps the methods x needs to be an I.
									if it, ok := o.Type().Underlying().(*types.Interface); ok {
										for i := 0; i < it.NumMethods(); i++ {
											asserted = append(asserted, it.Method(i))
										}
									}
									mark(o)
								case main:
									mark(o)
								case checked:
									declare(o, short+"."+n.Name, "", from, s.End())
								}
							}
						}
					}
				}
			}
		}
	}

	// The facade's exported names, and the exported methods and fields
	// of every type it aliases.
	if fp := p.pkgs[facade]; fp != nil && fp.pkg != nil {
		sc := fp.pkg.Scope()
		for _, n := range sc.Names() {
			o := sc.Lookup(n)
			if !o.Exported() {
				continue
			}
			mark(o)
			tn, ok := o.(*types.TypeName)
			if !ok || !tn.IsAlias() {
				continue
			}
			t := types.Unalias(tn.Type())
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || !ours(named.Obj()) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					mark(origin(m))
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i).Exported() {
						mark(st.Field(i))
					}
				}
			}
		}
	}

	// called holds the interface methods the program calls through.
	var called []*types.Func
	matches := func(m, im *types.Func) bool {
		return m.Name() == im.Name() && (m.Exported() || m.Pkg() == im.Pkg()) &&
			types.Identical(m.Type(), im.Type())
	}
	callable := func(m *types.Func) bool {
		if m.Name() == "String" || m.Name() == "Error" {
			return true
		}
		return slices.ContainsFunc(called, func(im *types.Func) bool { return matches(m, im) })
	}
	calls := func(im *types.Func) {
		called = append(called, im)
		for _, m := range methods[im.Name()] {
			if seen[recvObj(m)] && matches(m, im) {
				mark(m)
			}
		}
	}
	for _, im := range asserted {
		calls(im)
	}
	// drain follows every marked declaration, recording names in reach.
	drain := func(reach map[string]bool) {
		for len(work) > 0 {
			o := work[len(work)-1]
			work = work[:len(work)-1]
			if name, ok := names[o]; ok {
				reach[name] = true
			}
			for _, r := range refs[o] {
				mark(r)
			}
			switch o := o.(type) {
			case *types.Func:
				sig := o.Type().(*types.Signature)
				if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
					calls(o)
				} else if !ours(o) {
					// Code outside the module calls through the
					// interfaces it is handed.
					for i := 0; i < sig.Params().Len(); i++ {
						if it, ok := sig.Params().At(i).Type().Underlying().(*types.Interface); ok {
							for j := 0; j < it.NumMethods(); j++ {
								calls(it.Method(j))
							}
						}
					}
				}
			case *types.TypeName:
				if named, ok := o.Type().(*types.Named); ok && !o.IsAlias() && ours(o) {
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); callable(m) {
							mark(m)
						}
					}
				}
			}
		}
	}
	drain(live)
	// What only allowlisted declarations reach is kept with them.
	for o, name := range names {
		if _, ok := p.spec.allow[name]; ok {
			mark(o)
		}
	}
	drain(kept)
}

// origin maps a use of an instantiated generic to its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

func recvObj(m *types.Func) types.Object {
	t := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

func specDoc(s ast.Spec) *ast.CommentGroup {
	switch s := s.(type) {
	case *ast.TypeSpec:
		return s.Doc
	case *ast.ValueSpec:
		return s.Doc
	}
	return nil
}
