package worldsim

import (
	"bytes"
	"encoding/binary"
	"maps"
	"runtime"
	"slices"
	"testing"

	"darkdns/internal/columnar"
)

// snapTable frames one table as SaveSnapshot does: name, body length and
// a DCOL body written by fill, which patch may then corrupt.
func snapTable(name string, schema columnar.Schema, fill func(*columnar.Writer) error, patch func([]byte) []byte) []byte {
	var body bytes.Buffer
	cw := columnar.NewWriter(&body, schema, 0)
	if err := fill(cw); err != nil {
		panic(err)
	}
	if err := cw.Close(); err != nil {
		panic(err)
	}
	b := patch(body.Bytes())
	t := binary.AppendUvarint(nil, uint64(len(name)))
	t = append(t, name...)
	t = binary.AppendUvarint(t, uint64(len(b)))
	return append(t, b...)
}

// snapContainer wraps framed tables in a snapshot header and terminator.
func snapContainer(tables []byte) []byte {
	b := append([]byte(snapMagic), binary.AppendUvarint(nil, snapVersion)...)
	b = append(b, 0, 0) // seed, config hash
	return append(append(b, tables...), 0)
}

// oneLayout fills a layouts table with one row, layout 0 of .com.
func oneLayout(cw *columnar.Writer) error {
	return cw.Write(&columnar.RowGroup{Rows: 1, Cols: []columnar.Values{{Ints: []int64{0}}, {Strs: []string{"com"}}}})
}

// trailingSnapshots returns a snapshot of one layout and no other rows
// whose tables are followed by a large unknown table (its body over the
// columnar reader's 64 KiB buffer), and variants of it that differ only
// in bytes after a table body's DCOL end marker, by case name.
func trailingSnapshots() (valid []byte, bad map[string][]byte) {
	same := func(b []byte) []byte { return b }
	tail := func(b []byte) []byte { return append(b, 0xff, 0xff, 0xff) } // body ends 00 ff ff ff
	none := func(*columnar.Writer) error { return nil }
	layouts := func(patch func([]byte) []byte) []byte {
		return snapTable("layouts", layoutsSchema(), oneLayout, patch)
	}
	unknown := columnar.Schema{{Name: "a", Type: columnar.TypeInt64}}
	large := func(patch func([]byte) []byte) []byte {
		return snapTable("x", unknown, func(cw *columnar.Writer) error {
			g := &columnar.RowGroup{Rows: 40_000, Cols: make([]columnar.Values, 1)}
			for i := range g.Rows {
				g.Cols[0].Ints = append(g.Cols[0].Ints, int64(i)*1_000_003)
			}
			return cw.Write(g)
		}, patch)
	}
	var rest []byte
	for _, name := range []string{"domains", "ghosts", "nod", "dzdb", "flags"} {
		rest = append(rest, snapTable(name, tableSchemas[name], none, same)...)
	}
	build := func(tables ...[]byte) []byte { return snapContainer(bytes.Join(append(tables, rest), nil)) }
	hidden := snapTable("x", unknown, none, func(b []byte) []byte { return append(b, layouts(same)...) })
	return build(layouts(same), large(same)), map[string][]byte{
		"layouts body ends 00 ff ff ff":    build(layouts(tail), large(same)),
		"large unknown body with a tail":   build(layouts(same), large(tail)),
		"table framed inside unknown body": build(layouts(same), hidden, large(same)),
	}
}

// plainOverrun returns a snapshot of one layout and one NOD seeding whose
// plain domain column claims a name longer than its chunk holds.
func plainOverrun() []byte {
	same := func(b []byte) []byte { return b }
	none := func(*columnar.Writer) error { return nil }
	nod := snapTable("nod", seedSchema(), func(cw *columnar.Writer) error {
		return cw.Write(&columnar.RowGroup{Rows: 1, Cols: []columnar.Values{
			{Ints: []int64{0}}, {Strs: []string{"a.com"}}, {Ints: []int64{1}},
		}})
	}, func(b []byte) []byte {
		// DCOL1, the schema, row count 1, the layout chunk (01 00), the
		// domain chunk's length (06) and its name's length (05).
		at := len("DCOL1\n") + 1 + len(seedSchema().String()) + 1 + 2 + 1
		if b[at-1] != 6 || b[at] != 5 {
			panic("nod body not laid out as expected")
		}
		b[at] = 9
		return b
	})
	tables := snapTable("layouts", layoutsSchema(), oneLayout, same)
	for _, name := range []string{"domains", "ghosts"} {
		tables = append(tables, snapTable(name, tableSchemas[name], none, same)...)
	}
	tables = append(tables, nod...)
	for _, name := range []string{"dzdb", "flags"} {
		tables = append(tables, snapTable(name, tableSchemas[name], none, same)...)
	}
	return snapContainer(tables)
}

// checkLoad runs LoadSnapshot on data: it must return either an error or
// a layout set, never a panic, and allocate in proportion to the bytes it
// was given, so a few corrupt length or row-count fields cannot claim an
// unbounded amount of memory.
func checkLoad(t *testing.T, data []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ls, err := LoadSnapshot(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if (ls == nil) == (err == nil) {
		t.Fatalf("LoadSnapshot returned a set (%v) and an error (%v)", ls != nil, err)
	}
	// A valid snapshot decodes to about 6 bytes per input byte. The
	// budget for any input is 64 per byte plus 2 MiB: read buffers and
	// the up-to-1-MiB chunk a length field may claim before the stream
	// proves it short, which ends the load.
	if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+64*len(data)); got > budget {
		t.Fatalf("%d input bytes allocated %d bytes (budget %d)", len(data), got, budget)
	}
}

// TestLoadWholeSnapshot holds a whole tinyConfig snapshot to checkLoad's
// contract. It is not a FuzzLoadSnapshot seed: at ≈ 290 KB, every input
// the fuzzer grew from it that reached new code held the fuzz workers
// minimizing it for most of a 20 s run.
func TestLoadWholeSnapshot(t *testing.T) {
	var full bytes.Buffer
	if err := SaveSnapshot(&full, CompileLayoutSet(tinyConfig(3))); err != nil {
		t.Fatal(err)
	}
	checkLoad(t, full.Bytes())
}

// FuzzLoadSnapshot holds LoadSnapshot on arbitrary bytes to checkLoad's
// contract. The seeds are a tinyConfig world cut to a few rows per table,
// which the fuzzer can mutate quickly, and crafted corruptions.
func FuzzLoadSnapshot(f *testing.F) {
	ls := CompileLayoutSet(tinyConfig(3))
	small := &LayoutSet{Seed: ls.Seed, ConfigHash: ls.ConfigHash}
	for _, l := range ls.Layouts[:2] {
		small.Layouts = append(small.Layouts, &Layout{
			tld:     l.tld,
			domains: l.domains[:min(3, len(l.domains))],
			ghosts:  l.ghosts[:min(1, len(l.ghosts))],
			nod:     l.nod[:min(2, len(l.nod))],
			dzdb:    l.dzdb[:min(2, len(l.dzdb))],
			flags:   l.flags[:min(2, len(l.flags))],
		})
	}
	var cut bytes.Buffer
	if err := SaveSnapshot(&cut, small); err != nil {
		f.Fatal(err)
	}
	f.Add(cut.Bytes())
	f.Add([]byte(snapMagic))
	same := func(b []byte) []byte { return b }
	// A known table written with another schema: its decoder must not
	// index the columns it expects.
	f.Add(snapContainer(snapTable("layouts", columnar.Schema{{Name: "tld", Type: columnar.TypeString}},
		func(cw *columnar.Writer) error {
			return cw.Write(&columnar.RowGroup{Rows: 1, Cols: []columnar.Values{{Strs: []string{"com"}}}})
		}, same)))
	// A one-row layouts table whose row count is rewritten to 2^24: the
	// chunks hold one value, so nothing may be sized by the count.
	f.Add(snapContainer(snapTable("layouts", layoutsSchema(), oneLayout,
		func(b []byte) []byte {
			schemaLen, n := binary.Uvarint(b[len("DCOL1\n"):])
			at := len("DCOL1\n") + n + int(schemaLen) // the group's row count, 1
			return append(append(b[:at:at], binary.AppendUvarint(nil, 1<<24)...), b[at+1:]...)
		})))
	// Hundreds of empty unknown tables: each table's reader is sized to
	// what the table holds, not to a fixed buffer apiece.
	empty := snapTable("x", columnar.Schema{{Name: "a", Type: columnar.TypeInt64}},
		func(*columnar.Writer) error { return nil }, same)
	f.Add(snapContainer(bytes.Repeat(empty, 256)))
	// A plain name longer than its column's chunk.
	f.Add(plainOverrun())
	// Bytes after a body's end marker, inside its frame.
	valid, bad := trailingSnapshots()
	f.Add(valid)
	for _, name := range slices.Sorted(maps.Keys(bad)) {
		f.Add(bad[name])
	}

	f.Fuzz(checkLoad)
}
