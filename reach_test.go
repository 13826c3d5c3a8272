// Reachability ratchets, per package and per identifier: every internal/
// package must be imported, directly or transitively, by some command
// under cmd/ or program under examples/, and every exported identifier
// in internal/ must be used by some non-test code, unless an allowlist
// below names it — and the allowlists may only shrink. Code no program
// runs is code the campaign's numbers never exercise; these tests make
// adding more of it a visible decision. The bench module does not count
// as a caller.
package darkdns

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreachedAllowed names the internal packages no command or example
// reaches. Remove an entry when its package gains a caller or is
// deleted; never add one.
var unreachedAllowed = map[string]bool{
	"darkdns/internal/dnsserver": true,
	"darkdns/internal/resolver":  true,
	"darkdns/internal/udpbatch":  true,
}

// modulePackages parses the package clause and imports of every non-test
// Go file in the module, keyed by import path, and lists the packages
// named main. Directories with their own go.mod (the bench module),
// testdata and dot-directories are outside the module and skipped.
// Imports are the union over a package's files whatever their build
// constraints: an import any platform's build makes counts.
func modulePackages(t *testing.T) (imports map[string][]string, mains []string) {
	t.Helper()
	imports = map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == "." {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := "darkdns"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		if _, seen := imports[pkg]; !seen && f.Name.Name == "main" {
			mains = append(mains, pkg)
		}
		deps := imports[pkg]
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			deps = append(deps, p)
		}
		imports[pkg] = deps
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return imports, mains
}

func TestInternalPackagesReached(t *testing.T) {
	imports, mains := modulePackages(t)
	reached := map[string]bool{}
	var walk func(string)
	walk = func(pkg string) {
		if reached[pkg] {
			return
		}
		reached[pkg] = true
		for _, dep := range imports[pkg] {
			if _, inModule := imports[dep]; inModule {
				walk(dep)
			}
		}
	}
	roots := 0
	for _, m := range mains {
		if strings.HasPrefix(m, "darkdns/cmd/") || strings.HasPrefix(m, "darkdns/examples/") {
			walk(m)
			roots++
		}
	}
	if roots == 0 {
		t.Fatal("no package main under cmd/ or examples/")
	}

	var internal []string
	for pkg := range imports {
		if strings.HasPrefix(pkg, "darkdns/internal/") {
			internal = append(internal, pkg)
		}
	}
	sort.Strings(internal)
	for _, pkg := range internal {
		if !reached[pkg] && !unreachedAllowed[pkg] {
			t.Errorf("%s is imported by no command or example; give it a caller or delete it", pkg)
		}
	}
	for pkg := range unreachedAllowed {
		switch _, exists := imports[pkg]; {
		case !exists:
			t.Errorf("%s is allowlisted but no longer exists; remove it from unreachedAllowed", pkg)
		case reached[pkg]:
			t.Errorf("%s is allowlisted but a command or example now reaches it; remove it from unreachedAllowed", pkg)
		}
	}
}

// checkedPackage is one module package type-checked from its non-test
// files.
type checkedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// moduleChecker type-checks module packages on demand, so each is
// checked after the module packages it imports, and the standard library
// from source.
type moduleChecker struct {
	fset    *token.FileSet
	std     types.Importer
	dirs    map[string]string // import path → directory
	checked map[string]*checkedPackage
}

// Import implements types.Importer.
func (m *moduleChecker) Import(path string) (*types.Package, error) {
	dir, ok := m.dirs[path]
	if !ok {
		return m.std.Import(path)
	}
	if cp := m.checked[path]; cp != nil {
		return cp.pkg, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.checked[path] = &checkedPackage{pkg: pkg, files: files, info: info}
	return pkg, nil
}

// checkModule type-checks every package modulePackages finds, from the
// non-test files this platform builds.
func checkModule(t *testing.T) *moduleChecker {
	t.Helper()
	fset := token.NewFileSet()
	m := &moduleChecker{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		dirs:    map[string]string{},
		checked: map[string]*checkedPackage{},
	}
	imports, _ := modulePackages(t)
	for pkg := range imports {
		dir := strings.TrimPrefix(strings.TrimPrefix(pkg, "darkdns"), "/")
		if dir == "" {
			dir = "."
		}
		m.dirs[pkg] = dir
	}
	for pkg := range m.dirs {
		if _, err := m.Import(pkg); err != nil {
			t.Fatalf("type-check %s: %v", pkg, err)
		}
	}
	return m
}

// stdCalled names the standard-library interfaces whose methods the
// standard library calls on values the module hands it: fmt prints a
// Stringer or an error through its method, a rand.Rand draws from its
// Source64, and sort.Stable orders a sort.Interface through its Len,
// Less and Swap.
var stdCalled = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"math/rand", "Source64"},
	{"sort", "Interface"},
}

// origin maps a generic instance's method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// receiverBase returns the type name of a method declaration's receiver,
// T for T, *T, T[P] and *T[P].
func receiverBase(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}

// declares returns the package-level objects decl declares. A method
// declaration declares its method and, for this purpose, belongs to its
// receiver's type, so neither counts as used by it.
func declares(info *types.Info, decl ast.Decl) map[types.Object]bool {
	own := map[types.Object]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		own[info.Defs[d.Name]] = true
		if d.Recv != nil && len(d.Recv.List) == 1 {
			if id := receiverBase(d.Recv.List[0].Type); id != nil {
				own[info.Uses[id]] = true
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				own[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, id := range s.Names {
					own[info.Defs[id]] = true
				}
			}
		}
	}
	return own
}

// exportedUse names, as "pkg.Name" or "pkg.Type.Method" with pkg the
// path below internal/, every exported package-level func, type, var
// and const and every exported method of a package-level type in
// internal/, and reports whether non-test code of the module refers to
// it outside its own declaration. A method also counts as used when a
// type whose method set holds it implements an interface whose method
// the module refers to (or one in stdCalled): a call through the
// interface reaches it.
func (m *moduleChecker) exportedUse(t *testing.T) map[string]bool {
	t.Helper()
	used := map[types.Object]bool{}
	called := map[string][]*types.Func{} // interface methods referred to, by name
	var named []*types.Named             // every package-level named type, generic ones excepted
	for _, s := range stdCalled {
		scope := types.Universe
		if s.pkg != "" {
			pkg, err := m.std.Import(s.pkg)
			if err != nil {
				t.Fatal(err)
			}
			scope = pkg.Scope()
		}
		iface := scope.Lookup(s.name).Type().Underlying().(*types.Interface)
		for i := range iface.NumMethods() {
			fn := iface.Method(i)
			called[fn.Name()] = append(called[fn.Name()], fn)
		}
	}
	for _, cp := range m.checked {
		for _, f := range cp.files {
			for _, decl := range f.Decls {
				own := declares(cp.info, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := origin(cp.info.Uses[id])
					if obj == nil || own[obj] {
						return true
					}
					used[obj] = true
					if fn, ok := obj.(*types.Func); ok {
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
							called[fn.Name()] = append(called[fn.Name()], fn)
						}
					}
					return true
				})
			}
		}
		scope := cp.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
	}
	reachedThroughInterface := func(fn *types.Func) bool {
		for _, im := range called[fn.Name()] {
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			for _, n := range named {
				for _, typ := range []types.Type{n, types.NewPointer(n)} {
					if !types.Implements(typ, iface) {
						continue
					}
					if obj, _, _ := types.LookupFieldOrMethod(typ, true, fn.Pkg(), fn.Name()); obj == fn {
						return true
					}
				}
			}
		}
		return false
	}

	use := map[string]bool{}
	for path, cp := range m.checked {
		rel, ok := strings.CutPrefix(path, "darkdns/internal/")
		if !ok {
			continue
		}
		scope := cp.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				use[rel+"."+name] = used[obj]
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			var methods []*types.Func
			if iface, ok := n.Underlying().(*types.Interface); ok {
				for i := range iface.NumExplicitMethods() {
					methods = append(methods, iface.ExplicitMethod(i))
				}
			} else {
				for i := range n.NumMethods() {
					methods = append(methods, n.Method(i))
				}
			}
			for _, fn := range methods {
				if fn.Exported() {
					use[rel+"."+name+"."+fn.Name()] = used[fn] || reachedThroughInterface(fn)
				}
			}
		}
	}
	return use
}

// Reasons an exported identifier no non-test code uses may stay, each
// naming the open ROADMAP item that gives it a caller or removes it.
const (
	benchOnly = "bench/ calls it; the shim purge (ROADMAP item 1B) removes it or gives it a caller"
	benchWire = "bench/'s probe_wire workload drives it; the wire stack (ROADMAP item 6) gains a caller or goes"
	wireStack = "wire stack: ROADMAP item 6 gives it a caller or deletes it"
	testOnly  = "only tests use it: ROADMAP item 4 step 2 moves it into a _test.go file or deletes it"
)

// unusedAllowed names the exported identifiers in internal/ that no
// non-test code uses, with the reason each may stay. Remove an entry
// when its identifier gains a caller or goes; never add one.
var unusedAllowed = map[string]string{
	"analysis.DefaultRunConfig":            testOnly,
	"analysis.MeasureZoneCadence":          testOnly,
	"analysis.WriteReport":                 benchOnly,
	"asdb.DB.Len":                          testOnly,
	"asdb.DB.Name":                         testOnly,
	"blocklist.Aggregator.ConsiderAbusive": testOnly,
	"blocklist.Aggregator.FlaggedDomains":  testOnly,
	"blocklist.Aggregator.Flags":           testOnly,
	"ca.CA.HasToken":                       testOnly,
	"ca.CA.Stats":                          testOnly,
	"core.Pipeline.Candidate":              testOnly,
	"core.Pipeline.Dispatcher":             benchOnly,
	"core.Pipeline.StartBatched":           benchOnly,
	"core.Pipeline.Summary":                testOnly,
	"core.Pipeline.ZoneNRDCoverage":        testOnly,
	"core.ReadCandidates":                  testOnly,
	"ct.FinalCertificate":                  testOnly + "; no CA logs a final certificate, and the certstream hub's filter is tested with one",
	"dnsmsg.DefaultEDNSSize":               wireStack + "; only its EDNS tests use it",
	"dnsmsg.Message.SetEDNS0":              wireStack + "; only its EDNS tests use it",
	"dnsmsg.Record.Target":                 testOnly,
	"dnsname.AppendWire":                   testOnly,
	"dnsname.Compare":                      testOnly,
	"dnsname.CountLabels":                  testOnly,
	"dnsname.Join":                         testOnly,
	"dnsserver.HandlerFunc":                wireStack,
	"dnsserver.HostingHandler.Remove":      wireStack,
	"dnsserver.HostingHandler.Set":         wireStack,
	"dnsserver.New":                        benchWire,
	"dnsserver.NewHostingHandler":          wireStack,
	"dnsserver.Server.Close":               benchWire,
	"dnsserver.Server.ListenAndServe":      benchWire,
	"hosting.All":                          testOnly,
	"hosting.ByName":                       testOnly,
	"measure.Fleet.AttachDispatcher":       benchOnly,
	"measure.Fleet.OnObservation":          benchOnly,
	"measure.Fleet.State":                  testOnly,
	"measure.Fleet.States":                 benchOnly,
	"measure.Fleet.Watched":                testOnly,
	"psl.List.IsPublicSuffix":              testOnly,
	"psl.List.Len":                         testOnly,
	"psl.Parse":                            testOnly,
	"rdap.BackendFunc":                     testOnly,
	"rdap.QuerierAt":                       benchOnly,
	"rdap.QuerierAt.DomainAt":              benchOnly,
	"registry.Handle.Notify":               testOnly,
	"registry.Registration.Active":         testOnly,
	"registry.Registration.Lifetime":       testOnly,
	"registry.Registry.InZone":             testOnly,
	"registry.Registry.WebAddrs":           testOnly,
	"resolver.ExchangerFunc":               wireStack,
	"resolver.Lanes.LaneStats":             wireStack,
	"resolver.LocalExchanger":              wireStack,
	"resolver.New":                         benchWire,
	"resolver.NewLanes":                    wireStack,
	"resolver.Resolver.CacheStats":         benchWire,
	"resolver.Resolver.Flush":              wireStack,
	"resolver.Resolver.Lookup":             wireStack,
	"resolver.Resolver.LookupAddrs":        wireStack,
	"resolver.Resolver.Stats":              wireStack,
	"resolver.UDPExchanger":                benchWire,
	"resolver.UDPExchanger.Close":          benchWire,
	"simclock.Sim.Pending":                 benchOnly,
	"worldsim.LayoutSet.Domains":           benchOnly,
	"worldsim.TLDPlan.CTTotal":             testOnly,
	"worldsim.World.RunBatched":            benchOnly,
	"worldsim.World.RunLookahead":          benchOnly,
}

// TestExportedIdentifiersUsed is the reachability ratchet per
// identifier: TestInternalPackagesReached keeps a package's whole
// exported surface once one command imports it.
func TestExportedIdentifiersUsed(t *testing.T) {
	use := checkModule(t).exportedUse(t)
	names := make([]string, 0, len(use))
	for name := range use {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !use[name] && unusedAllowed[name] == "" {
			t.Errorf("%s is exported but no non-test code uses it; give it a caller, move it into a _test.go file or delete it", name)
		}
	}
	allowed := make([]string, 0, len(unusedAllowed))
	for name := range unusedAllowed {
		allowed = append(allowed, name)
	}
	sort.Strings(allowed)
	for _, name := range allowed {
		used, exists := use[name]
		switch {
		case unusedAllowed[name] == "":
			t.Errorf("%s is allowlisted without a reason", name)
		case !exists:
			t.Errorf("%s is allowlisted but no longer exists; remove it from unusedAllowed", name)
		case used:
			t.Errorf("%s is allowlisted but non-test code now uses it; remove it from unusedAllowed", name)
		}
	}
}
