package main

import (
	"os"
	"slices"
	"strings"
	"testing"

	"darkdns/internal/analysis"
)

// TestUsageListsEverySection holds the package comment's experiment list
// to the renderer's section table, the list -exp is checked against.
func TestUsageListsEverySection(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(src), "// Experiments: ")
	if !ok {
		t.Fatal("main.go's package comment has no Experiments: list")
	}
	list, _, _ = strings.Cut(list, "\npackage ")
	got := strings.Fields(strings.ReplaceAll(list, "//", ""))
	if want := append(analysis.Sections(), "all"); !slices.Equal(got, want) {
		t.Errorf("package comment lists experiments %v, the report has %v", got, want)
	}
}
