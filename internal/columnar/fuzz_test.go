package columnar

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
)

// FuzzColumnarRoundTrip drives the codec two ways from one seed corpus:
// the raw input is fed straight to the reader (which must error or EOF,
// never panic or allocate unboundedly), and the same bytes are chopped
// into rows for a write→read→compare cycle across every column type. The
// rows are written as groups of 29, 3, 11, 0 and 1 rows in turn, cut at 16,
// so short groups follow long ones, and the written file must equal the
// reference encoders' bytes for the same groups, so the Writer's reused
// scratch cannot carry state from one column or group into the next. The
// plain string column holds distinct names, repeats and empty strings.
func FuzzColumnarRoundTrip(f *testing.F) {
	// Seed with a small valid file so the fuzzer starts from structure.
	seedSchema := Schema{
		{Name: "s", Type: TypeString},
		{Name: "i", Type: TypeInt64},
		{Name: "b", Type: TypeBool},
		{Name: "f", Type: TypeFloat64},
		{Name: "p", Type: TypePlainString},
	}
	f.Add(writeFile(f, seedSchema, 3, &RowGroup{Rows: 2, Cols: []Values{
		{Strs: []string{"a.com", "b.org"}},
		{Ints: []int64{42, -7}},
		{Bools: []bool{true, false}},
		{Floats: []float64{0.5, -1e9}},
		{Strs: []string{"x.net", ""}},
	}}))
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
			{Name: "r", Type: TypePlainString},
			{Name: "t", Type: TypeString},
			{Name: "p", Type: TypePlainString},
		}
		all := &RowGroup{Cols: make([]Values, len(schema))}
		c := all.Cols
		for i := 0; i+9 <= len(data) && all.Rows < 512; i += 9 {
			chunk := data[i : i+9]
			c[0].Strs = append(c[0].Strs, string(chunk[:2]))
			c[1].Ints = append(c[1].Ints, int64(chunk[2])-int64(chunk[3])<<(chunk[5]%64)) // varints of every length
			c[2].Bools = append(c[2].Bools, chunk[4]&1 == 1)
			c[3].Floats = append(c[3].Floats, math.Float64frombits(uint64(chunk[5])|uint64(chunk[6])<<32))
			c[4].Strs = append(c[4].Strs, string(chunk[7:7+int(chunk[8]%3)]))
			c[5].Strs = append(c[5].Strs, string(chunk[8:8+int(chunk[7]%2)]))
			p := fmt.Sprintf("%d.%x", all.Rows, chunk[:2]) // distinct
			switch {
			case chunk[4]&6 == 2:
				p = ""
			case chunk[4]&6 == 4 && all.Rows > 0:
				p = c[6].Strs[all.Rows-1]
			}
			c[6].Strs = append(c[6].Strs, p)
			all.Rows++
		}
		var groups []*RowGroup
		for lo, k := 0, 0; lo < all.Rows; k++ {
			hi := min(lo+[]int{29, 3, 11, 0, 1}[k%5], all.Rows)
			groups = append(groups, cut(schema, all, lo, hi))
			lo = hi
		}
		file := writeFile(t, schema, 16, groups...)
		if want := referenceFile(schema, cutAll(schema, groups, 16)); !bytes.Equal(file, want) {
			t.Fatalf("writer output (%d bytes) differs from the reference encoders' (%d bytes)", len(file), len(want))
		}
		cr, err := NewReader(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		got := &RowGroup{Cols: make([]Values, len(schema))}
		for {
			g, err := cr.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range g.Cols {
				gc := &got.Cols[i]
				gc.Strs = append(gc.Strs, v.Strs...)
				gc.Ints = append(gc.Ints, v.Ints...)
				gc.Bools = append(gc.Bools, v.Bools...)
				gc.Floats = append(gc.Floats, v.Floats...)
			}
			got.Rows += g.Rows
		}
		if got.Rows != all.Rows {
			t.Fatalf("round trip: %d rows in, %d out", all.Rows, got.Rows)
		}
		g := got.Cols
		for i := 0; i < all.Rows; i++ {
			if g[0].Strs[i] != c[0].Strs[i] || g[4].Strs[i] != c[4].Strs[i] || g[5].Strs[i] != c[5].Strs[i] ||
				g[6].Strs[i] != c[6].Strs[i] || g[1].Ints[i] != c[1].Ints[i] || g[2].Bools[i] != c[2].Bools[i] ||
				math.Float64bits(g[3].Floats[i]) != math.Float64bits(c[3].Floats[i]) {
				t.Fatalf("row %d differs after the round trip", i)
			}
		}
	})
}
