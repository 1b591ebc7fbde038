package alvc_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestProductionCodeIsReachable holds production code to what a program
// calls. It type-checks the module's non-test files and walks every
// function reference from the roots: the programs under cmd/ and
// examples/, the root package's exported functions and methods, every
// init and package-level initializer, and every method that satisfies an
// interface. A function or method under internal/ that no root reaches
// fails the test unless testdata/reachability_allowlist.txt names it, and
// so does an allowlist entry that something now reaches. Functions only
// the benchmark reaches are logged, not failed.
func TestProductionCodeIsReachable(t *testing.T) {
	allow, err := readAllowlist("testdata/reachability_allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyzeReachability(reachConfig{
		Dir:        ".",
		Scope:      "internal",
		Programs:   []string{"cmd", "examples"},
		Benchmarks: []string{"benchmark"},
		Allow:      allow,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.BenchOnly {
		t.Logf("reached only from benchmark/: %s", f)
	}
	for _, f := range rep.Dead {
		t.Errorf("no program reaches %s: delete it, move it into a _test.go file, or allowlist it", f)
	}
	for _, f := range rep.Stale {
		t.Errorf("allowlist entry %s is stale: something reaches it, or it names nothing", f)
	}
}

// TestReachabilityAnalyzer runs the analyzer on testdata/reachmod, a
// module built to hold one case of each kind the analyzer must tell
// apart.
func TestReachabilityAnalyzer(t *testing.T) {
	rep, err := analyzeReachability(reachConfig{
		Dir:        "testdata/reachmod",
		Scope:      "internal",
		Programs:   []string{"cmd"},
		Benchmarks: []string{"benchmark"},
		Allow: map[string]allowEntry{
			"internal/lib.Kept":  {Category: "fixture", Reason: "used by a test"},
			"internal/lib.Ref.*": {Category: "reference", Reason: "a model tests compare against"},
			"internal/lib.Stale": {Category: "fixture", Reason: "called by cmd/app"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := reachReport{
		Dead:      []string{"internal/lib.Dead", "internal/lib.deadHelper"},
		BenchOnly: []string{"internal/lib.BenchOnly"},
		Stale:     []string{"internal/lib.Stale"},
	}
	if fmt.Sprint(rep) != fmt.Sprint(want) {
		t.Errorf("report\n got %v\nwant %v", rep, want)
	}
}

// reachConfig names a module and the roles of its directories, each a
// slash-separated path relative to Dir.
type reachConfig struct {
	Dir        string   // module root, holding go.mod
	Scope      string   // functions under this directory must be reachable
	Programs   []string // directories whose main packages are roots
	Benchmarks []string // directories whose every function is a root, reported apart
	Allow      map[string]allowEntry
}

// allowEntry is one line of the allowlist: an unreachable function kept
// on purpose. Its key names a function as the report does, or every
// method of a type as "dir.Type.*".
type allowEntry struct {
	Category string // "reference" or "fixture"
	Reason   string
}

// reachReport lists functions by key, sorted: Dead are in scope, reached
// by no root and not allowlisted; BenchOnly are in scope and reached only
// from a benchmark; Stale are allowlist keys that are reached or name no
// function.
type reachReport struct {
	Dead, BenchOnly, Stale []string
}

// readAllowlist reads lines of "category key reason…"; # starts a
// comment line.
func readAllowlist(path string) (map[string]allowEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]allowEntry{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 || (fields[0] != "reference" && fields[0] != "fixture") {
			return nil, fmt.Errorf("%s:%d: want \"reference|fixture key reason\"", path, n)
		}
		if _, dup := allow[fields[1]]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, fields[1])
		}
		allow[fields[1]] = allowEntry{Category: fields[0], Reason: strings.Join(fields[2:], " ")}
	}
	return allow, sc.Err()
}

// reachPkg is one type-checked package of the module.
type reachPkg struct {
	path, dir string // import path; directory relative to the module root
	files     []*ast.File
	types     *types.Package
	info      *types.Info
}

func analyzeReachability(cfg reachConfig) (reachReport, error) {
	fset := token.NewFileSet()
	pkgs, err := loadModule(fset, cfg.Dir)
	if err != nil {
		return reachReport{}, err
	}

	// Every declared function, the functions each one references, and
	// the roots.
	keys := map[*types.Func][]string{} // the function's key, then its type's pattern
	var inScope []*types.Func
	refs := map[*types.Func][]*types.Func{}
	var prodRoots, benchRoots []*types.Func
	for _, p := range pkgs {
		isProgram, isBench := underAny(p.dir, cfg.Programs), underAny(p.dir, cfg.Benchmarks)
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, _ := p.info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					keys[fn] = funcKeys(p.dir, d)
					if under(p.dir, cfg.Scope) {
						inScope = append(inScope, fn)
					}
					refs[fn] = funcRefs(p.info, d)
					isInit := d.Recv == nil && d.Name.Name == "init"
					isMain := d.Recv == nil && d.Name.Name == "main" && p.types.Name() == "main"
					switch {
					case isBench:
						benchRoots = append(benchRoots, fn)
					case isInit, isProgram && isMain, p.dir == "." && d.Name.IsExported():
						prodRoots = append(prodRoots, fn)
					}
				case *ast.GenDecl:
					switch {
					case d.Tok != token.VAR:
					case isBench:
						benchRoots = append(benchRoots, funcRefs(p.info, d)...)
					default: // package-level initializers run in every program
						prodRoots = append(prodRoots, funcRefs(p.info, d)...)
					}
				}
			}
		}
	}
	prodRoots = append(prodRoots, interfaceMethods(pkgs)...)

	prod := reach(prodRoots, refs, nil)
	all := reach(benchRoots, refs, prod)

	var rep reachReport
	reached := map[string]bool{} // allowlist key -> some function it covers is reached
	for _, fn := range inScope {
		if a := allowedAs(cfg.Allow, keys[fn]); a != "" {
			reached[a] = reached[a] || all[fn]
			continue
		}
		switch {
		case !all[fn]:
			rep.Dead = append(rep.Dead, keys[fn][0])
		case !prod[fn]:
			rep.BenchOnly = append(rep.BenchOnly, keys[fn][0])
		}
	}
	for k := range cfg.Allow {
		if r, covers := reached[k]; r || !covers {
			rep.Stale = append(rep.Stale, k)
		}
	}
	sort.Strings(rep.Dead)
	sort.Strings(rep.BenchOnly)
	sort.Strings(rep.Stale)
	return rep, nil
}

// allowedAs returns the allowlist key covering a function's keys, or "".
func allowedAs(allow map[string]allowEntry, keys []string) string {
	for _, k := range keys {
		if _, ok := allow[k]; ok {
			return k
		}
	}
	return ""
}

// reach returns seen plus every function reachable from roots.
func reach(roots []*types.Func, refs map[*types.Func][]*types.Func, seen map[*types.Func]bool) map[*types.Func]bool {
	out := make(map[*types.Func]bool, len(seen))
	for fn := range seen {
		out[fn] = true
	}
	stack := append([]*types.Func(nil), roots...)
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out[fn] {
			continue
		}
		out[fn] = true
		stack = append(stack, refs[fn]...)
	}
	return out
}

// funcRefs lists the functions and methods a declaration names: calls,
// function and method values and method expressions alike. Methods of
// instantiated generic types resolve to their generic declaration.
func funcRefs(info *types.Info, n ast.Node) []*types.Func {
	var out []*types.Func
	add := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn.Origin())
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			add(info.Uses[n])
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil {
				add(sel.Obj())
			}
		}
		return true
	})
	return out
}

// hiddenInterfaceMethods are the methods the standard library calls
// through interfaces it does not export: errors.Is, As and Unwrap, and
// http.ResponseController's Unwrap.
var hiddenInterfaceMethods = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// interfaceMethods returns every method of a module type that satisfies
// a method of an interface declared in the module or in a package it
// imports, or of error, and every method hiddenInterfaceMethods names: a
// call through the interface may reach it.
func interfaceMethods(pkgs []*reachPkg) []*types.Func {
	ifaces := map[string][]*types.Interface{} // by method name
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seenPkg := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.types)
		for _, tv := range p.info.Types { // interface literals, e.g. in assertions
			if it, ok := tv.Type.(*types.Interface); ok {
				addIface(it)
			}
		}
	}

	var out []*types.Func
	for _, p := range pkgs {
		for _, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for i := 0; i < mset.Len(); i++ {
				m := mset.At(i).Obj().(*types.Func)
				if hiddenInterfaceMethods[m.Name()] {
					out = append(out, m.Origin())
					continue
				}
				for _, it := range ifaces[m.Name()] {
					// An uninstantiated generic type cannot be checked
					// against an interface: its name match is enough.
					if named.TypeParams().Len() > 0 || types.Implements(ptr, it) {
						out = append(out, m.Origin())
						break
					}
				}
			}
		}
	}
	return out
}

// funcKeys names a declared function as "dir.Func", or a method as
// "dir.Type.Method" followed by its type's pattern "dir.Type.*".
func funcKeys(dir string, d *ast.FuncDecl) []string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return []string{dir + "." + d.Name.Name}
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
			continue
		case *ast.IndexExpr:
			t = x.X
			continue
		case *ast.IndexListExpr:
			t = x.X
			continue
		case *ast.ParenExpr:
			t = x.X
			continue
		}
		break
	}
	typ := dir + "." + types.ExprString(t)
	return []string{typ + "." + d.Name.Name, typ + ".*"}
}

func under(dir, root string) bool {
	return dir == root || strings.HasPrefix(dir, root+"/")
}

func underAny(dir string, roots []string) bool {
	for _, r := range roots {
		if under(dir, r) {
			return true
		}
	}
	return false
}

// loadModule parses and type-checks the non-test files of every package
// of the module rooted at root, skipping testdata, hidden directories
// and nested modules. Packages outside the module come from the
// compiler's export data.
func loadModule(fset *token.FileSet, root string) ([]*reachPkg, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	byPath := map[string]*reachPkg{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if rel != "." {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		p := &reachPkg{path: mod, dir: rel}
		if rel != "." {
			p.path = mod + "/" + rel
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(path, name); err != nil || !ok {
				if err != nil {
					return err
				}
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		if len(p.files) > 0 {
			byPath[p.path] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Check in dependency order: a package after the module packages it
	// imports.
	var order []*reachPkg
	state := map[*reachPkg]int{} // 1 visiting, 2 done
	var visit func(*reachPkg) error
	visit = func(p *reachPkg) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("import cycle through %s", p.path)
		case 2:
			return nil
		}
		state[p] = 1
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if dep := byPath[strings.Trim(imp.Path.Value, `"`)]; dep != nil {
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	paths := make([]string, 0, len(byPath))
	for path := range byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := visit(byPath[path]); err != nil {
			return nil, err
		}
	}

	imp := moduleImporter{std: importer.ForCompiler(fset, "gc", nil), module: map[string]*types.Package{}}
	for _, p := range order {
		p.info = &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Types:      map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		p.types, err = conf.Check(p.path, fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		imp.module[p.path] = p.types
	}
	return order, nil
}

// moduleImporter serves the module's own packages from those already
// checked and the rest from export data.
type moduleImporter struct {
	std    types.Importer
	module map[string]*types.Package
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.module[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
