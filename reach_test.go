// Reachability ratchet: every internal/ package must be imported,
// directly or transitively, by some command under cmd/ or program under
// examples/, unless it is on the allowlist below — and the allowlist may
// only shrink. Code no program runs is code the campaign's numbers never
// exercise; this test makes adding more of it a visible decision. The
// bench module does not count as a caller.
package darkdns

import (
	"go/parser"
	"go/token"
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
