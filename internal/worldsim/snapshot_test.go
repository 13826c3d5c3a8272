package worldsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"darkdns/internal/columnar"
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
			if gr.d = r.d; gr != r {
				t.Fatalf("layout %d domain %d: regLayout %+v, want %+v", i, j, gr, r)
			}
		}
		if !reflect.DeepEqual(got.nod, l.nod) || !reflect.DeepEqual(got.flags, l.flags) ||
			!reflect.DeepEqual(got.dzdb, l.dzdb) {
			t.Fatalf("layout %d: feed seedings mismatch", i)
		}
	}
}

// TestSaveRefusesWhatItCannotStore: the snapshot stores a registration's
// TLD as its layout's, its DNS host as its NS set's provider and its web
// address as a nonzero IPv4 number, so a registration those would not
// give back is a save error, not a different world after the load.
func TestSaveRefusesWhatItCannotStore(t *testing.T) {
	ls := CompileLayoutSet(tinyConfig(41))
	l := ls.Layouts[0]
	for name, edit := range map[string]func(r *regLayout){
		"a TLD other than its layout's": func(r *regLayout) { r.d.TLD = "elsewhere" },
		"another provider's NS set":     func(r *regLayout) { r.d.DNSHost = "Elsewhere" },
		"an NS set of no ID":            func(r *regLayout) { r.nsSet = 0 },
		"no web address":                func(r *regLayout) { r.web = [4]byte{} },
	} {
		r := l.domains[0]
		d := *r.d
		r.d = &d
		edit(&r)
		one := &LayoutSet{Seed: ls.Seed, ConfigHash: ls.ConfigHash, Layouts: []*Layout{{tld: l.tld, domains: []regLayout{r}}}}
		if err := SaveSnapshot(io.Discard, one); err == nil {
			t.Errorf("%s: saved", name)
		}
	}
	one := &LayoutSet{Seed: ls.Seed, ConfigHash: ls.ConfigHash, Layouts: []*Layout{{tld: l.tld, domains: l.domains[:1]}}}
	if err := SaveSnapshot(io.Discard, one); err != nil {
		t.Fatalf("the unedited registration: %v", err)
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

// TestSnapshotCorruptInputs: truncated or corrupt snapshots, tables with
// bytes after their body's end marker and a plain name column whose
// lengths overrun its chunk error cleanly; a corrupt file behind
// Config.SnapshotPath still builds.
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
	if _, err := LoadSnapshot(bytes.NewReader(plainOverrun())); err == nil || !strings.Contains(err.Error(), "overruns") {
		t.Errorf("plain name overrunning its chunk: %v", err)
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
// the snapshot still round-trips. They were pinned for version 2 (plain
// name columns, no per-row TLD, NS sets as set IDs, web addresses as IPv4
// numbers); a deliberate format change bumps snapVersion and re-pins them.
func TestSnapshotBytesPinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		size int
		sum  string
	}{
		{5, 288734, "e5ce132a4f336a791172efddf51de2cf885a05dfcea67d12ca5fe7e376339549"},
		{7, 287267, "2a403cca7347ea3ac373e5c8c02c239ca26e2b8de365c84fd246968094078eaa"},
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
// tables and row groups, not its rows. A table's columns, the writer's
// dictionary and chunk scratch are allocated when the table first needs
// them and reused by every later group, and the body blocks come from the
// previous save, so a world with about three times the rows (and about as
// many layouts, hence row groups) costs only the doublings of those
// buffers to its larger groups: well under one allocation per 16 added
// rows, where a cell or a chunk allocated per row costs several per row.
// Each count is the mean of 20 saves.
func TestSnapshotSaveAllocations(t *testing.T) {
	measure := func(scale float64) (allocs float64, rows int) {
		cfg := tinyConfig(5)
		cfg.Scale *= scale
		ls := CompileLayoutSet(cfg)
		for _, l := range ls.Layouts {
			rows += len(l.domains) + len(l.ghosts) + len(l.nod) + len(l.dzdb) + len(l.flags)
		}
		return testing.AllocsPerRun(20, func() {
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

// TestSaveReusesBodyBlocks: a save builds its table bodies in the blocks
// the last save left, so once one save of a world has run, saving it
// again allocates no body memory, and a save that finds the blocks taken
// builds in its own.
func TestSaveReusesBodyBlocks(t *testing.T) {
	ls := CompileLayoutSet(tinyConfig(5))
	var first bytes.Buffer
	if err := SaveSnapshot(&first, ls); err != nil {
		t.Fatal(err)
	}
	body := spareBody.Load()
	if body == nil || len(body.blocks) == 0 {
		t.Fatal("a save left no body blocks behind")
	}
	blocks := slices.Clone(body.blocks)
	var again bytes.Buffer
	if err := SaveSnapshot(&again, ls); err != nil {
		t.Fatal(err)
	}
	if spareBody.Load() != body || len(body.blocks) != len(blocks) {
		t.Fatalf("the second save left %d blocks in a buffer of its own, want the first save's %d", len(spareBody.Load().blocks), len(blocks))
	}
	for i := range blocks {
		if &body.blocks[i][:1][0] != &blocks[i][:1][0] {
			t.Fatalf("block %d was replaced", i)
		}
	}
	if !bytes.Equal(again.Bytes(), first.Bytes()) {
		t.Fatal("a save in reused blocks wrote different bytes")
	}

	// With the blocks taken, a save builds in fresh ones and leaves them.
	taken := spareBody.Swap(nil)
	var fresh bytes.Buffer
	if err := SaveSnapshot(&fresh, ls); err != nil {
		t.Fatal(err)
	}
	if got := spareBody.Load(); got == nil || got == taken || !bytes.Equal(fresh.Bytes(), first.Bytes()) {
		t.Fatal("a save without spare blocks did not build its own")
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

// TestLoadRefusesWhatNoRecordHolds: a registration's record keeps its web
// address as four bytes, all zero for none, and its CA as a one-byte
// index, so a stored web address of 0 or outside IPv4, and a
// registration's or ghost's CA index outside the world's CAs, is a load
// error; the same rows with stored values load.
func TestLoadRefusesWhatNoRecordHolds(t *testing.T) {
	ls := CompileLayoutSet(tinyConfig(41))
	l := ls.Layouts[0]
	r, g := l.domains[0], l.ghosts[0]
	same := func(b []byte) []byte { return b }
	none := func(*columnar.Writer) error { return nil }
	snapshot := func(web, regCA, ghostCA int64) []byte {
		d := r.d
		tables := snapTable("layouts", layoutsSchema(), func(cw *columnar.Writer) error {
			return cw.Write(&columnar.RowGroup{Rows: 1, Cols: []columnar.Values{{Ints: []int64{0}}, {Strs: []string{l.tld}}}})
		}, same)
		tables = append(tables, snapTable("domains", domainsSchema(), func(cw *columnar.Writer) error {
			return cw.Write(&columnar.RowGroup{Rows: 1, Cols: []columnar.Values{
				{Ints: []int64{0}}, {Strs: []string{d.Name}}, {Strs: []string{d.Registrar}},
				{Ints: []int64{d.Created.UnixNano()}}, {Ints: []int64{int64(d.Lifetime)}},
				{Bools: []bool{d.FastDelete}}, {Bools: []bool{d.Malicious}}, {Ints: []int64{int64(d.Reason)}},
				{Bools: []bool{d.CertAsked}}, {Strs: []string{d.WebHost}}, {Bools: []bool{d.HasMX}}, {Bools: []bool{d.HasSPF}},
				{Ints: []int64{int64(r.nsSet)}}, {Ints: []int64{web}}, {Ints: []int64{regCA}},
				{Ints: []int64{int64(r.certDelay)}}, {Ints: []int64{int64(r.retrySeed)}},
				{Bools: []bool{r.nsChange}}, {Ints: []int64{int64(r.nsChangeAt)}}, {Ints: []int64{int64(r.altSet)}},
			}})
		}, same)...)
		tables = append(tables, snapTable("ghosts", ghostsSchema(), func(cw *columnar.Writer) error {
			return cw.Write(&columnar.RowGroup{Rows: 1, Cols: []columnar.Values{
				{Ints: []int64{0}}, {Strs: []string{g.d.Name}}, {Ints: []int64{g.d.Created.UnixNano()}},
				{Ints: []int64{ghostCA}}, {Ints: []int64{g.tokenAt.UnixNano()}}, {Bools: []bool{g.inDZDB}},
			}})
		}, same)...)
		for _, name := range []string{"nod", "dzdb", "flags"} {
			tables = append(tables, snapTable(name, tableSchemas[name], none, same)...)
		}
		return snapContainer(tables)
	}
	web := int64(binary.BigEndian.Uint32(r.web[:]))
	got, err := LoadSnapshot(bytes.NewReader(snapshot(web, int64(r.caIdx), int64(g.caIdx))))
	if err != nil {
		t.Fatalf("the stored rows: %v", err)
	}
	if gr := got.Layouts[0].domains[0]; gr.web != r.web || gr.caIdx != r.caIdx || *gr.d != *r.d || got.Layouts[0].ghosts[0].caIdx != g.caIdx {
		t.Fatalf("the stored rows load as %+v", gr)
	}
	nCAs := int64(len(caNames))
	for name, data := range map[string][]byte{
		"web address 0":           snapshot(0, int64(r.caIdx), int64(g.caIdx)),
		"a negative web address":  snapshot(-1, int64(r.caIdx), int64(g.caIdx)),
		"a web address past IPv4": snapshot(1<<32, int64(r.caIdx), int64(g.caIdx)),
		"a negative CA":           snapshot(web, -1, int64(g.caIdx)),
		"a CA past the world's":   snapshot(web, nCAs, int64(g.caIdx)),
		"a CA past one byte":      snapshot(web, 256, int64(g.caIdx)),
		"a ghost's CA past":       snapshot(web, int64(r.caIdx), nCAs),
	} {
		if _, err := LoadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
}
