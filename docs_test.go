// Docs gate: README.md's flag reference must cover every flag the
// commands actually register, so the operator documentation cannot rot
// silently when a PR adds or renames a flag. CI runs this test as an
// explicit "docs gate" step; it also runs in every plain `go test ./...`.
package darkdns

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// flagDecls match the standard-library flag registration forms: the
// value-returning constructors (flag.Int("name", ...)), their *Var
// variants (flag.IntVar(&v, "name", ...)), Func/BoolFunc, and custom
// flag.Var values. The receiver is any identifier, so FlagSet-based
// registration (fs.Int("name", ...)) is caught too — the method-name
// alternation keeps false positives out.
var flagDecls = []*regexp.Regexp{
	regexp.MustCompile(`\b\w+\.(?:Bool|Int64|Int|Uint64|Uint|Float64|String|Duration|Func|BoolFunc)\("([a-z0-9-]+)"`),
	regexp.MustCompile(`\b\w+\.(?:Bool|Int64|Int|Uint64|Uint|Float64|String|Duration|Text)Var\([^,]+,\s*"([a-z0-9-]+)"`),
	regexp.MustCompile(`\b\w+\.Var\([^,]+,\s*"([a-z0-9-]+)"`),
}

// registeredFlags extracts the flag names declared in a command's main.go.
func registeredFlags(t *testing.T, path string) []string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	var names []string
	for _, re := range flagDecls {
		for _, m := range re.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
	}
	if len(names) == 0 {
		t.Fatalf("no flag registrations found in %s (regex drift?)", path)
	}
	return names
}

// TestReadmeFlagReference fails when a flag registered in cmd/darkdns,
// cmd/reproduce, cmd/feedserver, cmd/zonediff, or cmd/sweep has no row
// in README.md's flag reference (a table row whose first cell is the
// backticked flag), or when the -workers row or the table's
// determinism-guarantee column is missing.
func TestReadmeFlagReference(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("README.md missing: %v", err)
	}
	doc := string(readme)

	for _, cmd := range []string{
		"cmd/darkdns/main.go", "cmd/reproduce/main.go", "cmd/feedserver/main.go",
		"cmd/zonediff/main.go", "cmd/sweep/main.go",
	} {
		for _, name := range registeredFlags(t, cmd) {
			row := fmt.Sprintf("| `-%s` |", name)
			if !strings.Contains(doc, row) {
				t.Errorf("%s registers -%s but README.md's flag table has no %q row", cmd, name, row)
			}
		}
	}

	// The one concurrency flag is the load-bearing documentation: its row
	// must be present, in the table that states determinism guarantees.
	if !strings.Contains(doc, "| `-workers` |") {
		t.Error("README.md's flag table has no `-workers` row")
	}
	if !strings.Contains(doc, "Determinism guarantee") {
		t.Error("README.md flag table lost its determinism-guarantee column")
	}
}
