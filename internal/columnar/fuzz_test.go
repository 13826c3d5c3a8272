package columnar

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// FuzzColumnarRoundTrip drives the codec two ways from one seed corpus:
// the raw input is fed straight to the reader (which must error or EOF,
// never panic or allocate unboundedly), and the same bytes are chopped
// into rows for a write→read→compare cycle across every column type. The
// written file must also equal the reference encoders' bytes for the same
// 7-row groups, so the Writer's reused scratch cannot carry state from
// one column or group into the next.
func FuzzColumnarRoundTrip(f *testing.F) {
	// Seed with a small valid file so the fuzzer starts from structure.
	var seed bytes.Buffer
	w := NewWriter(&seed, Schema{
		{Name: "s", Type: TypeString},
		{Name: "i", Type: TypeInt64},
		{Name: "b", Type: TypeBool},
		{Name: "f", Type: TypeFloat64},
		{Name: "r", Type: TypeBytes},
	}, 3)
	w.Append(String("a.com"), Int(42), Bool(true), Float(0.5), Bytes([]byte{1, 2}))
	w.Append(String("b.org"), Int(-7), Bool(false), Float(-1e9), Bytes(nil))
	w.Close()
	f.Add(seed.Bytes())
	f.Add([]byte(magic))
	f.Add([]byte(magic + "\x03a:b"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Adversarial direction: arbitrary bytes must never panic the reader.
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
			for {
				if _, err := r.Next(); err != nil {
					break
				}
			}
		}

		// Constructive direction: interpret the bytes as rows and round-trip.
		schema := Schema{
			{Name: "s", Type: TypeString},
			{Name: "i", Type: TypeInt64},
			{Name: "b", Type: TypeBool},
			{Name: "f", Type: TypeFloat64},
			{Name: "r", Type: TypeBytes},
			{Name: "t", Type: TypeString},
		}
		type row struct {
			s string
			i int64
			b bool
			f float64
			r []byte
			t string
		}
		var rows []row
		for i := 0; i+9 <= len(data) && len(rows) < 512; i += 9 {
			chunk := data[i : i+9]
			rows = append(rows, row{
				s: string(chunk[:2]),
				i: int64(chunk[2]) - int64(chunk[3])<<4,
				b: chunk[4]&1 == 1,
				f: math.Float64frombits(uint64(chunk[5]) | uint64(chunk[6])<<32),
				r: append([]byte(nil), chunk[7:7+int(chunk[8]%3)]...),
				t: string(chunk[8 : 8+int(chunk[7]%2)]),
			})
		}
		var buf bytes.Buffer
		cw := NewWriter(&buf, schema, 7)
		var groups [][][]Value
		for k, r := range rows {
			vals := []Value{String(r.s), Int(r.i), Bool(r.b), Float(r.f), Bytes(r.r), String(r.t)}
			if err := cw.Append(vals...); err != nil {
				t.Fatal(err)
			}
			if k%7 == 0 {
				groups = append(groups, nil)
			}
			groups[len(groups)-1] = append(groups[len(groups)-1], vals)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		if want := referenceFile(schema, groups); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("writer output (%d bytes) differs from the reference encoders' (%d bytes)", buf.Len(), len(want))
		}
		cr, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var got []row
		for {
			g, err := cr.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < g.Rows; i++ {
				got = append(got, row{
					s: g.Strs["s"][i], i: g.Ints["i"][i], b: g.Bools["b"][i],
					f: g.Floats["f"][i], r: g.Bytes["r"][i], t: g.Strs["t"][i],
				})
			}
		}
		if len(got) != len(rows) {
			t.Fatalf("round trip: %d rows in, %d out", len(rows), len(got))
		}
		for i := range rows {
			if got[i].s != rows[i].s || got[i].t != rows[i].t || got[i].i != rows[i].i || got[i].b != rows[i].b ||
				math.Float64bits(got[i].f) != math.Float64bits(rows[i].f) ||
				!bytes.Equal(got[i].r, rows[i].r) {
				t.Fatalf("row %d: got %+v, want %+v", i, got[i], rows[i])
			}
		}
	})
}
