package profiling

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesBothProfiles: with both paths set, stop leaves two
// gzip-compressed pprof files behind; with neither, Start and stop do
// nothing and create nothing.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s is not a gzip-compressed profile (%d bytes)", filepath.Base(p), len(b))
		}
	}

	stop, err = Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 2 {
		t.Errorf("empty paths wrote files: %d entries in %s", len(ents), dir)
	}
}

// TestStartReportsUnwritablePath: a CPU profile path that cannot be
// created is an error from Start, not a silent run without a profile.
func TestStartReportsUnwritablePath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "missing", "cpu.pprof"), ""); err == nil {
		t.Error("Start accepted a CPU profile path in a missing directory")
	}
}
