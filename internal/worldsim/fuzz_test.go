package worldsim

import (
	"bytes"
	"encoding/binary"
	"runtime"
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

// FuzzLoadSnapshot: LoadSnapshot on arbitrary bytes returns either an
// error or a layout set — never a panic — and allocates in proportion to
// the bytes it was given, so a few corrupt length or row-count fields
// cannot claim an unbounded amount of memory. The seeds are a whole
// tinyConfig snapshot and the same world cut to a few rows per table,
// which the fuzzer can mutate quickly.
func FuzzLoadSnapshot(f *testing.F) {
	ls := CompileLayoutSet(tinyConfig(3))
	var full bytes.Buffer
	if err := SaveSnapshot(&full, ls); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())
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
		func(cw *columnar.Writer) error { return cw.Append(columnar.String("com")) }, same)))
	// A one-row layouts table whose row count is rewritten to 2^24: the
	// chunks hold one value, so nothing may be sized by the count.
	f.Add(snapContainer(snapTable("layouts", layoutsSchema(),
		func(cw *columnar.Writer) error { return cw.Append(columnar.Int(0), columnar.String("com")) },
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

	f.Fuzz(func(t *testing.T, data []byte) {
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
	})
}
