package worldsim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSnapshotRoundTrip: a saved-then-loaded layout set must commit to a
// byte-identical world — same fingerprint (every Domain field plus the
// ghost ledger) and the same full event stream a run delivers.
func TestSnapshotRoundTrip(t *testing.T) {
	cfg := tinyConfig(41)
	ls := CompileLayoutSet(cfg)

	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, ls); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seed != ls.Seed || loaded.ConfigHash != ls.ConfigHash {
		t.Fatalf("header: got (%d,%x), want (%d,%x)", loaded.Seed, loaded.ConfigHash, ls.Seed, ls.ConfigHash)
	}
	if !loaded.Matches(cfg) {
		t.Fatal("loaded set does not match its own config")
	}
	if len(loaded.Layouts) != len(ls.Layouts) {
		t.Fatalf("layouts: got %d, want %d", len(loaded.Layouts), len(ls.Layouts))
	}
	for i, l := range ls.Layouts {
		got := loaded.Layouts[i]
		if got.tld != l.tld || len(got.domains) != len(l.domains) || len(got.ghosts) != len(l.ghosts) {
			t.Fatalf("layout %d: shape mismatch", i)
		}
		for j, r := range l.domains {
			gr := got.domains[j]
			if *gr.d != *r.d {
				t.Fatalf("layout %d domain %d: %+v vs %+v", i, j, *gr.d, *r.d)
			}
			if !reflect.DeepEqual(gr.ns, r.ns) || gr.web != r.web || gr.caIdx != r.caIdx ||
				gr.certDelay != r.certDelay || gr.retrySeed != r.retrySeed ||
				gr.nsChange != r.nsChange || gr.nsChangeAt != r.nsChangeAt ||
				!reflect.DeepEqual(gr.altNS, r.altNS) {
				t.Fatalf("layout %d domain %d: regLayout mismatch", i, j)
			}
		}
		if !reflect.DeepEqual(got.nod, l.nod) || !reflect.DeepEqual(got.flags, l.flags) ||
			!reflect.DeepEqual(got.dzdb, l.dzdb) {
			t.Fatalf("layout %d: feed seedings mismatch", i)
		}
	}
}

// TestSnapshotWorldByteIdentical: building via Config.SnapshotPath (cold
// save, then warm load) must produce the same world and event stream as
// building with no snapshot at all.
func TestSnapshotWorldByteIdentical(t *testing.T) {
	base := tinyConfig(42)
	wantFP := worldFingerprint(New(base))

	path := filepath.Join(t.TempDir(), "world.dsnap")
	cold := base
	cold.SnapshotPath = path
	loadsBefore := SnapshotLoadCount()
	coldFP := worldFingerprint(New(cold)) // miss: compiles, saves
	if SnapshotLoadCount() != loadsBefore {
		t.Fatal("cold build should not count as a snapshot load")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cold build did not save snapshot: %v", err)
	}
	compilesBefore := CompileCount()
	warmFP := worldFingerprint(New(cold)) // hit: decode only
	if CompileCount() != compilesBefore {
		t.Fatal("warm build recompiled despite a matching snapshot")
	}
	if SnapshotLoadCount() != loadsBefore+1 {
		t.Fatal("warm build did not count as a snapshot load")
	}
	if coldFP != wantFP || warmFP != wantFP {
		t.Fatal("snapshot-path worlds differ from the plain build")
	}

	// Event-stream identity, not just static ground truth.
	want := recordedEvents(base)
	got := recordedEvents(cold)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event streams differ: %d vs %d events", len(got), len(want))
	}
}

// TestSnapshotMismatchFallsBack: a snapshot saved for one (seed, shape)
// must not be used for another — the build silently recompiles.
func TestSnapshotMismatchFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "world.dsnap")
	a := tinyConfig(1)
	if err := SaveSnapshotFile(path, CompileLayoutSet(a)); err != nil {
		t.Fatal(err)
	}

	b := tinyConfig(2) // different seed
	b.SnapshotPath = path
	loadsBefore := SnapshotLoadCount()
	got := worldFingerprint(New(b))
	if SnapshotLoadCount() != loadsBefore {
		t.Fatal("mismatched snapshot was loaded")
	}
	if want := worldFingerprint(New(tinyConfig(2))); got != want {
		t.Fatal("fallback world differs from plain build")
	}
	// The fallback saved seed-2's world over the stale file, so a rebuild
	// now hits.
	ls, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ls.Matches(b) {
		t.Fatal("fallback build did not refresh the snapshot")
	}

	// Shape changes (not just seed) must also miss.
	c := tinyConfig(2)
	c.Weeks = 3
	if ls.Matches(c) {
		t.Fatal("snapshot matched a different world shape")
	}
}

// TestSnapshotCorruptInputs: truncated or corrupt snapshots, and tables
// with bytes after their body's end marker, error cleanly; a corrupt file
// behind Config.SnapshotPath still builds.
func TestSnapshotCorruptInputs(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(7)
	if err := SaveSnapshot(&buf, CompileLayoutSet(cfg)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for _, cut := range []int{0, 3, len(snapMagic) + 2, len(full) / 2, len(full) - 2} {
		if _, err := LoadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("cut at %d: truncated snapshot loaded cleanly", cut)
		}
	}
	garbage := append([]byte(nil), full...)
	copy(garbage[len(snapMagic)+4:], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	if _, err := LoadSnapshot(bytes.NewReader(garbage)); err == nil {
		t.Error("corrupt snapshot loaded cleanly")
	}

	// A table's length frame must end at its body's end marker.
	valid, bad := trailingSnapshots()
	if _, err := LoadSnapshot(bytes.NewReader(valid)); err != nil {
		t.Fatalf("framed snapshot without trailing bytes: %v", err)
	}
	for name, b := range bad {
		if _, err := LoadSnapshot(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: loaded cleanly", name)
		}
	}

	path := filepath.Join(t.TempDir(), "bad.dsnap")
	if err := os.WriteFile(path, full[:len(full)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.SnapshotPath = path
	if got, want := worldFingerprint(New(cfg)), worldFingerprint(New(tinyConfig(7))); got != want {
		t.Fatal("build behind a corrupt snapshot differs from plain build")
	}
}

// TestSnapshotVersionGate: a bumped format version is a load error (and
// therefore a compile fallback), never a misparse.
func TestSnapshotVersionGate(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, CompileLayoutSet(tinyConfig(3))); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(snapMagic)] = snapVersion + 1 // version varint is one byte
	if _, err := LoadSnapshot(bytes.NewReader(b)); err == nil {
		t.Error("future-version snapshot loaded cleanly")
	}
}

// TestSnapshotBytesPinned: SaveSnapshot's bytes for two seeds are pinned
// by SHA-256, so an encoder change that moves a byte fails here even when
// the snapshot still round-trips. The hashes were taken from the
// allocating encoder the scratch-reusing one replaced; a deliberate format
// change bumps snapVersion and re-pins them.
func TestSnapshotBytesPinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		size int
		sum  string
	}{
		{5, 488441, "e76b2c5ddaff6bd6d732bff85c3e94fc3df17c7558ac1b6d1c6cf4f984a0bd88"},
		{7, 486032, "1cfb2fe37e155933acad2a8dbd8a82254f4220e94f86d30ebf3988bbbdcc0b1e"},
	} {
		var buf bytes.Buffer
		if err := SaveSnapshot(&buf, CompileLayoutSet(tinyConfig(c.seed))); err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != c.size || sum != c.sum {
			t.Errorf("seed %d: %d bytes, sha256 %s; want %d bytes, %s", c.seed, buf.Len(), sum, c.size, c.sum)
		}
	}
}

// TestSnapshotSaveAllocations: SaveSnapshot's allocations grow with its
// tables and row groups, not its rows. Column buffers, the dictionary,
// the chunk scratch, the NS arena and the body blocks are allocated when
// a table first needs them and reused by every later group, so a world
// with about three times the rows (and about as many layouts, hence row
// groups) costs only the doublings of those buffers to its larger groups:
// well under one allocation per 16 added rows, where a cell or a chunk
// allocated per row costs several per row.
func TestSnapshotSaveAllocations(t *testing.T) {
	measure := func(scale float64) (allocs float64, rows int) {
		cfg := tinyConfig(5)
		cfg.Scale *= scale
		ls := CompileLayoutSet(cfg)
		for _, l := range ls.Layouts {
			rows += len(l.domains) + len(l.ghosts) + len(l.nod) + len(l.dzdb) + len(l.flags)
		}
		return testing.AllocsPerRun(3, func() {
			if err := SaveSnapshot(io.Discard, ls); err != nil {
				t.Fatal(err)
			}
		}), rows
	}
	smallAllocs, smallRows := measure(1)
	largeAllocs, largeRows := measure(4)
	if largeRows < 2*smallRows {
		t.Fatalf("worlds of %d and %d rows are too close in size to compare", smallRows, largeRows)
	}
	if perRow := (largeAllocs - smallAllocs) / float64(largeRows-smallRows); perRow > 1.0/16 {
		t.Errorf("%.0f allocations at %d rows, %.0f at %d rows: %.3f per added row, want at most 1/16",
			smallAllocs, smallRows, largeAllocs, largeRows, perRow)
	}
}

// TestBlockBuffer: a body written in pieces of every size — empty, one
// byte, ones that end exactly on a block boundary, one longer than a
// block — reads back whole and in order, and after reset a shorter body
// reads back without bytes left from the longer one.
func TestBlockBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var b blockBuffer
	for _, sizes := range [][]int{
		{0, 1, bodyBlock - 1, bodyBlock, 3*bodyBlock/2 + 7, 5, bodyBlock/2 - 12},
		{17, bodyBlock + 1},
	} {
		b.reset()
		var want bytes.Buffer
		for _, n := range sizes {
			p := make([]byte, n)
			rng.Read(p)
			if k, err := b.Write(p); k != n || err != nil {
				t.Fatalf("Write(%d bytes) = %d, %v", n, k, err)
			}
			want.Write(p)
		}
		var got bytes.Buffer
		if err := b.writeTo(&got); err != nil {
			t.Fatal(err)
		}
		if b.len() != want.Len() || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("pieces %v: len %d, wrote %d bytes; want %d bytes back", sizes, b.len(), got.Len(), want.Len())
		}
	}
}
