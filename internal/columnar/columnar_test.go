package columnar

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func measurementSchema() Schema {
	return Schema{
		{Name: "domain", Type: TypeString},
		{Name: "ts", Type: TypeInt64},
		{Name: "alive", Type: TypeBool},
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := measurementSchema()
	got, err := ParseSchema(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("schema round trip: %v vs %v", got, s)
	}
	if s.Index("ts") != 1 || s.Index("missing") != -1 {
		t.Error("Index")
	}
}

func TestParseSchemaErrors(t *testing.T) {
	for _, bad := range []string{"", "noType", ":string", "x:floats"} {
		if _, err := ParseSchema(bad); err == nil {
			t.Errorf("ParseSchema(%q) should fail", bad)
		}
	}
}

// writeFile writes groups through a fresh Writer of schema and returns
// the file's bytes.
func writeFile(t testing.TB, schema Schema, groupRows int, groups ...*RowGroup) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, schema, groupRows)
	for _, g := range groups {
		if err := w.Write(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// measurements builds a measurementSchema group from its three columns.
func measurements(domains []string, ts []int64, alive []bool) *RowGroup {
	return &RowGroup{Rows: len(domains), Cols: []Values{{Strs: domains}, {Ints: ts}, {Bools: alive}}}
}

func TestWriteReadSingleGroup(t *testing.T) {
	domains := []string{"example.com", "example.com", "dead.shop"}
	ts := []int64{1700000000, 1700000600, 1700000000}
	alive := []bool{true, true, false}
	file := writeFile(t, measurementSchema(), 0, measurements(domains, ts, alive))

	r, err := NewReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	g, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != 3 {
		t.Fatalf("rows = %d", g.Rows)
	}
	if got := g.Col("domain").Strs; !reflect.DeepEqual(got, domains) {
		t.Errorf("domains: %v", got)
	}
	if got := g.Col("ts").Ints; !reflect.DeepEqual(got, ts) {
		t.Errorf("ts: %v", got)
	}
	if got := g.Col("alive").Bools; !reflect.DeepEqual(got, alive) {
		t.Errorf("alive: %v", got)
	}
	if g.Col("missing") != nil {
		t.Error("Col of a column the schema lacks is not nil")
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want io.EOF, got %v", err)
	}
}

func TestMultipleRowGroups(t *testing.T) {
	var domains []string
	var ts []int64
	var alive []bool
	for i := 0; i < 35; i++ {
		domains = append(domains, fmt.Sprintf("d%d.com", i%7))
		ts = append(ts, int64(i))
		alive = append(alive, i%2 == 0)
	}
	r, err := NewReader(bytes.NewReader(writeFile(t, measurementSchema(), 10, measurements(domains, ts, alive))))
	if err != nil {
		t.Fatal(err)
	}
	var groups, total int
	for {
		g, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		groups++
		total += g.Rows
	}
	if groups != 4 || total != 35 {
		t.Errorf("groups=%d total=%d, want 4/35", groups, total)
	}
}

func TestEmptyFile(t *testing.T) {
	r, err := NewReader(bytes.NewReader(writeFile(t, measurementSchema(), 0, measurements(nil, nil, nil))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want io.EOF, got %v", err)
	}
}

// TestWriteShapeMismatch: a group whose columns do not match the schema
// in number, length or type is refused.
func TestWriteShapeMismatch(t *testing.T) {
	for name, g := range map[string]*RowGroup{
		"too few columns": {Rows: 1, Cols: []Values{{Strs: []string{"x"}}}},
		"short column":    measurements([]string{"x", "y"}, []int64{1}, []bool{true, false}),
		"column of a type the schema does not give it": {Rows: 1, Cols: []Values{{Strs: []string{"x"}}, {Floats: []float64{1}}, {Bools: []bool{true}}}},
	} {
		if err := NewWriter(io.Discard, measurementSchema(), 0).Write(g); err == nil {
			t.Errorf("%s: Write accepted the group", name)
		}
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTCOL\n"))); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
}

// repeated returns a measurementSchema group of n rows: domain "x.com",
// ts i and alive true in row i.
func repeated(n int) *RowGroup {
	domains, ts, alive := make([]string, n), make([]int64, n), make([]bool, n)
	for i := range n {
		domains[i], ts[i], alive[i] = "x.com", int64(i), true
	}
	return measurements(domains, ts, alive)
}

func TestTruncatedFile(t *testing.T) {
	full := writeFile(t, measurementSchema(), 0, repeated(100))
	for _, cut := range []int{len(magic) + 2, len(full) / 2, len(full) - 2} {
		r, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			continue // header truncation is fine too
		}
		for {
			_, err = r.Next()
			if err != nil {
				break
			}
		}
		if err == io.EOF {
			t.Errorf("cut at %d: clean EOF on truncated file", cut)
		}
	}
}

func TestDictionaryCompression(t *testing.T) {
	// Highly repetitive strings (NS hostnames) should compress far below
	// the raw size.
	ns := make([]string, 10_000)
	raw := 0
	for i := range ns {
		ns[i] = fmt.Sprintf("ns%d.cloudflare.com", i%4)
		raw += len(ns[i])
	}
	file := writeFile(t, Schema{{Name: "ns", Type: TypeString}}, 0, &RowGroup{Rows: len(ns), Cols: []Values{{Strs: ns}}})
	if len(file) > raw/5 {
		t.Errorf("encoded %d bytes for %d raw; dictionary ineffective", len(file), raw)
	}
}

func TestDeltaEncodingOfTimestamps(t *testing.T) {
	// Monotone timestamps (the common case) should use ~1-2 bytes/row.
	ts := make([]int64, 10_000)
	for i := range ts {
		ts[i] = 1_700_000_000 + 600*int64(i+1)
	}
	file := writeFile(t, Schema{{Name: "ts", Type: TypeInt64}}, 0, &RowGroup{Rows: len(ts), Cols: []Values{{Ints: ts}}})
	if len(file) > 3*10_000 {
		t.Errorf("encoded %d bytes for 10k timestamps", len(file))
	}
}

func TestPropertyRoundTripRandomRows(t *testing.T) {
	f := func(seed int64, nRows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRows)
		domains, ts, alive := make([]string, n), make([]int64, n), make([]bool, n)
		for i := range n {
			domains[i] = fmt.Sprintf("d%d.com", rng.Intn(10))
			ts[i] = rng.Int63n(1<<40) - (1 << 39)
			alive[i] = rng.Intn(2) == 0
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, measurementSchema(), 7) // small groups to cross boundaries
		if err := w.Write(measurements(domains, ts, alive)); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		var gotD []string
		var gotT []int64
		var gotA []bool
		for {
			g, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return false
			}
			gotD = append(gotD, g.Col("domain").Strs...)
			gotT = append(gotT, g.Col("ts").Ints...)
			gotA = append(gotA, g.Col("alive").Bools...)
		}
		if n == 0 {
			return len(gotD) == 0
		}
		return reflect.DeepEqual(gotD, domains) && reflect.DeepEqual(gotT, ts) && reflect.DeepEqual(gotA, alive)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWrite(b *testing.B) {
	schema := measurementSchema()
	domains, ts, alive := make([]string, 1000), make([]int64, 1000), make([]bool, 1000)
	for j := range domains {
		domains[j], ts[j], alive[j] = "example.com", int64(j), true
	}
	g := measurements(domains, ts, alive)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter(io.Discard, schema, 0)
		w.Write(g)
		w.Close()
	}
}

func BenchmarkRead(b *testing.B) {
	domains, ts, alive := make([]string, 10_000), make([]int64, 10_000), make([]bool, 10_000)
	for j := range domains {
		domains[j], ts[j], alive[j] = fmt.Sprintf("d%d.com", j%50), int64(j), j%3 == 0
	}
	data := writeFile(b, measurementSchema(), 0, measurements(domains, ts, alive))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := r.Next(); err != nil {
				break
			}
		}
	}
}

func TestFloatRoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, 1.5, -2.25, 0.001, math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0.93, 0.93, 0.94}
	// Small groups to cross boundaries.
	file := writeFile(t, Schema{{Name: "rate", Type: TypeFloat64}}, 5, &RowGroup{Rows: len(vals), Cols: []Values{{Floats: vals}}})
	r, err := NewReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for {
		g, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, g.Col("rate").Floats...)
	}
	if len(got) != len(vals) {
		t.Fatalf("got %d floats, want %d", len(got), len(vals))
	}
	for i, f := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(f) {
			t.Errorf("float[%d] = %v, want %v", i, got[i], f)
		}
	}
}

// floats is a one-column float64 file of vals.
func floats(t testing.TB, vals ...float64) []byte {
	return writeFile(t, Schema{{Name: "f", Type: TypeFloat64}}, 0, &RowGroup{Rows: len(vals), Cols: []Values{{Floats: vals}}})
}

func TestFloatNaNRoundTrip(t *testing.T) {
	r, err := NewReader(bytes.NewReader(floats(t, math.NaN())))
	if err != nil {
		t.Fatal(err)
	}
	g, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f := g.Col("f").Floats[0]; !math.IsNaN(f) {
		t.Errorf("NaN decoded to %v", f)
	}
}

func TestFloatDeltaCompression(t *testing.T) {
	// Repeated round constants (sweep-cell parameters) should shrink to a
	// byte or two per value under the mantissa-reversed delta encoding.
	vals := make([]float64, 10_000)
	for i := range vals {
		vals[i] = 0.02
	}
	if n := len(floats(t, vals...)); n > 3*10_000 {
		t.Errorf("encoded %d bytes for 10k repeated floats", n)
	}
}

// TestWriterGroupsFollowWrites: each Write is a row group of its own, cut
// at the writer's groupRows, and a Write of no rows writes no group.
func TestWriterGroupsFollowWrites(t *testing.T) {
	schema := Schema{{Name: "n", Type: TypeInt64}}
	ints := func(lo, hi int) *RowGroup {
		g := &RowGroup{Rows: hi - lo, Cols: make([]Values, 1)}
		for i := lo; i < hi; i++ {
			g.Cols[0].Ints = append(g.Cols[0].Ints, int64(i))
		}
		return g
	}
	r, err := NewReader(bytes.NewReader(writeFile(t, schema, 5, ints(0, 3), ints(3, 5), ints(5, 5), ints(5, 17))))
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	var got []int64
	for {
		g, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, g.Rows)
		got = append(got, g.Cols[0].Ints...)
	}
	if !reflect.DeepEqual(sizes, []int{3, 2, 5, 5, 2}) {
		t.Errorf("group sizes = %v, want [3 2 5 5 2]", sizes)
	}
	if !reflect.DeepEqual(got, ints(0, 17).Cols[0].Ints) {
		t.Errorf("values = %v, want 0..16", got)
	}
}

func TestCorruptInputsReturnErrors(t *testing.T) {
	// Build a small valid file, then corrupt it in targeted ways; every
	// variant must surface an error without panicking.
	full := writeFile(t, measurementSchema(), 0, repeated(10))
	plainSchema := Schema{{Name: "name", Type: TypePlainString}}
	plain := writeFile(t, plainSchema, 0, &RowGroup{Rows: 2, Cols: []Values{{Strs: []string{"a.com", "b.com"}}}})

	cases := map[string][]byte{
		"huge row count": func() []byte {
			// Replace the first row-group count with an absurd varint.
			schemaEnd := len(magic) + 1 + len(measurementSchema().String())
			out := append([]byte(nil), full[:schemaEnd]...)
			out = binary.AppendUvarint(out, 1<<40)
			return append(out, full[schemaEnd+1:]...)
		}(),
		"huge chunk length": func() []byte {
			schemaEnd := len(magic) + 1 + len(measurementSchema().String())
			out := append([]byte(nil), full[:schemaEnd+1]...)
			out = binary.AppendUvarint(out, 1<<50)
			return out
		}(),
		"unknown schema type": []byte(magic + "\x09x:float32"),
		"truncated varint":    append(append([]byte(nil), full[:len(magic)]...), 0xff),
		"plain string longer than its chunk": func() []byte {
			// The chunk is 05 a.com 05 b.com; the second length claims 6.
			out := append([]byte(nil), plain...)
			at := len(magic) + 1 + len(plainSchema.String()) + 2 + 6
			if out[at] != 5 {
				panic("plain chunk not where expected")
			}
			out[at] = 6
			return out
		}(),
	}
	for name, data := range cases {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			continue // error at header stage is an acceptable outcome
		}
		for {
			_, err = r.Next()
			if err != nil {
				break
			}
		}
		if err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: want decode error, got %v", name, err)
		}
	}
}

// TestReaderReuse drives the storage-recycling mode: groups consumed one
// at a time must decode identically to the default mode, and strings,
// dictionary and plain ones, must survive the next group's decode (they
// never alias scratch).
func TestReaderReuse(t *testing.T) {
	schema, err := ParseSchema("s:string,i:int64,f:float64,ok:bool,p:plainstring")
	if err != nil {
		t.Fatal(err)
	}
	const rows, groupRows = 25, 4
	g := &RowGroup{Rows: rows, Cols: make([]Values, len(schema))}
	for i := 0; i < rows; i++ {
		c := g.Cols
		c[0].Strs = append(c[0].Strs, fmt.Sprintf("row-%02d", i))
		c[1].Ints = append(c[1].Ints, int64(i*3))
		c[2].Floats = append(c[2].Floats, float64(i)/7)
		c[3].Bools = append(c[3].Bools, i%3 == 0)
		c[4].Strs = append(c[4].Strs, fmt.Sprintf("plain-%02d", i))
	}

	r, err := NewReader(bytes.NewReader(writeFile(t, schema, groupRows, g)))
	if err != nil {
		t.Fatal(err)
	}
	r.Reuse()
	var keptStrs, keptPlain []string // strings retained across groups must stay valid
	i := 0
	for {
		g, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		s, n, f, ok, p := g.Col("s").Strs, g.Col("i").Ints, g.Col("f").Floats, g.Col("ok").Bools, g.Col("p").Strs
		for k := 0; k < g.Rows; k++ {
			if want := fmt.Sprintf("row-%02d", i); s[k] != want {
				t.Fatalf("row %d: s = %q, want %q", i, s[k], want)
			}
			if n[k] != int64(i*3) {
				t.Fatalf("row %d: i = %d", i, n[k])
			}
			if f[k] != float64(i)/7 {
				t.Fatalf("row %d: f = %v", i, f[k])
			}
			if ok[k] != (i%3 == 0) {
				t.Fatalf("row %d: ok = %v", i, ok[k])
			}
			keptStrs = append(keptStrs, s[k])
			keptPlain = append(keptPlain, p[k])
			i++
		}
	}
	if i != rows {
		t.Fatalf("rows = %d, want %d", i, rows)
	}
	for j := range keptStrs {
		if want := fmt.Sprintf("row-%02d", j); keptStrs[j] != want {
			t.Fatalf("retained string %d corrupted by reuse: %q, want %q", j, keptStrs[j], want)
		}
		if want := fmt.Sprintf("plain-%02d", j); keptPlain[j] != want {
			t.Fatalf("retained plain string %d corrupted by reuse: %q, want %q", j, keptPlain[j], want)
		}
	}
}

// Reference encoders: the allocating one-chunk-at-a-time forms the
// Writer's scratch-reusing append* encoders replaced, kept as the oracle
// that holds the Writer's bytes fixed.

func encodeStrings(vals []string) []byte {
	dict := make(map[string]uint64)
	var order []string
	for _, v := range vals {
		if _, ok := dict[v]; !ok {
			dict[v] = uint64(len(order))
			order = append(order, v)
		}
	}
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(order)))
	for _, s := range order {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	for _, v := range vals {
		out = binary.AppendUvarint(out, dict[v])
	}
	return out
}

func encodeInts(vals []int64) []byte {
	var out []byte
	prev := int64(0)
	for _, v := range vals {
		out = binary.AppendVarint(out, v-prev)
		prev = v
	}
	return out
}

func encodeBools(vals []bool) []byte {
	var out []byte
	i := 0
	for i < len(vals) {
		j := i
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		out = binary.AppendUvarint(out, uint64(j-i))
		if vals[i] {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		i = j
	}
	return out
}

func encodeFloats(vals []float64) []byte {
	var out []byte
	prev := uint64(0)
	for _, v := range vals {
		u := bits.ReverseBytes64(math.Float64bits(v))
		out = binary.AppendVarint(out, int64(u-prev))
		prev = u
	}
	return out
}

func encodePlainStrings(vals []string) []byte {
	var out []byte
	for _, v := range vals {
		out = binary.AppendUvarint(out, uint64(len(v)))
		out = append(out, v...)
	}
	return out
}

// referenceFile encodes groups as a DCOL file with the reference
// encoders, one row group per group that has rows.
func referenceFile(schema Schema, groups []*RowGroup) []byte {
	frame := func(out, b []byte) []byte {
		return append(binary.AppendUvarint(out, uint64(len(b))), b...)
	}
	out := frame([]byte(magic), []byte(schema.String()))
	for _, g := range groups {
		if g.Rows == 0 {
			continue
		}
		out = binary.AppendUvarint(out, uint64(g.Rows))
		for i, c := range schema {
			var chunk []byte
			v := g.Cols[i]
			switch c.Type {
			case TypeString:
				chunk = encodeStrings(v.Strs)
			case TypePlainString:
				chunk = encodePlainStrings(v.Strs)
			case TypeInt64:
				chunk = encodeInts(v.Ints)
			case TypeBool:
				chunk = encodeBools(v.Bools)
			case TypeFloat64:
				chunk = encodeFloats(v.Floats)
			}
			out = frame(out, chunk)
		}
	}
	return binary.AppendUvarint(out, 0)
}

// cut returns rows lo..hi-1 of g, whose columns follow schema.
func cut(schema Schema, g *RowGroup, lo, hi int) *RowGroup {
	out := &RowGroup{Rows: hi - lo, Cols: make([]Values, len(schema))}
	for i, c := range schema {
		v := g.Cols[i]
		switch c.Type {
		case TypeString, TypePlainString:
			out.Cols[i].Strs = v.Strs[lo:hi]
		case TypeInt64:
			out.Cols[i].Ints = v.Ints[lo:hi]
		case TypeBool:
			out.Cols[i].Bools = v.Bools[lo:hi]
		case TypeFloat64:
			out.Cols[i].Floats = v.Floats[lo:hi]
		}
	}
	return out
}

// cutAll cuts each group into groups of at most n rows, as a Writer with
// groupRows n does.
func cutAll(schema Schema, groups []*RowGroup, n int) []*RowGroup {
	var out []*RowGroup
	for _, g := range groups {
		for lo := 0; lo < g.Rows; lo += n {
			out = append(out, cut(schema, g, lo, min(lo+n, g.Rows)))
		}
	}
	return out
}

// TestWriterMatchesReference holds the Writer's bytes equal to the
// reference encoders' across several groups and several string and plain
// string columns. Groups and columns differ in size and cardinality in
// both directions (a small dictionary after a large one, a short plain
// column after a long one), so a dictionary, index or chunk buffer leaking
// from one column or group into the next changes the output. The name
// column holds distinct names, repeats and empty strings.
func TestWriterMatchesReference(t *testing.T) {
	schema, err := ParseSchema("a:string,n:int64,raw:plainstring,b:string,ok:bool,f:float64,c:string,tail:plainstring,name:plainstring")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var groups []*RowGroup
	for _, size := range []int{300, 5, 1, 0, 120, 2} {
		g := &RowGroup{Rows: size, Cols: make([]Values, len(schema))}
		c := g.Cols
		for k := 0; k < size; k++ {
			raw := make([]byte, rng.Intn(40))
			rng.Read(raw)
			c[0].Strs = append(c[0].Strs, fmt.Sprintf("d%d.example", rng.Intn(size*2+1)))
			c[1].Ints = append(c[1].Ints, rng.Int63n(1<<40))
			c[2].Strs = append(c[2].Strs, string(raw))
			c[3].Strs = append(c[3].Strs, []string{"com", "net", "org"}[rng.Intn(3)])
			c[4].Bools = append(c[4].Bools, rng.Intn(3) == 0)
			c[5].Floats = append(c[5].Floats, rng.NormFloat64())
			c[6].Strs = append(c[6].Strs, "")
			c[7].Strs = append(c[7].Strs, string(raw[:min(len(raw), 2)]))
			name := fmt.Sprintf("n%d-%d.example", size, k) // distinct
			switch {
			case k%11 == 3:
				name = "" // empty
			case k%7 == 5:
				name = c[8].Strs[k-1] // a repeat
			}
			c[8].Strs = append(c[8].Strs, name)
		}
		groups = append(groups, g)
	}
	if got, want := writeFile(t, schema, 0, groups...), referenceFile(schema, groups); !bytes.Equal(got, want) {
		t.Fatalf("writer output (%d bytes) differs from the reference encoders' (%d bytes)", len(got), len(want))
	}
	// The row threshold cuts groups inside the written ones.
	if got, want := writeFile(t, schema, 7, groups...), referenceFile(schema, cutAll(schema, groups, 7)); !bytes.Equal(got, want) {
		t.Fatal("writer output with a 7-row threshold differs from the reference encoders'")
	}
}

// TestReaderFrameEndsAtEndMarker: a file read through an io.LimitedReader
// must end exactly at its end marker. Trailing bytes inside the frame are
// an error whether they sit in the reader's buffer (a small frame) or
// still in the frame (one larger than the 64 KiB buffer); an exact frame
// and an unbounded source read as before.
func TestReaderFrameEndsAtEndMarker(t *testing.T) {
	schema := Schema{{Name: "n", Type: TypeInt64}}
	for _, size := range []int{3, 40_000} {
		g := &RowGroup{Rows: size, Cols: make([]Values, 1)}
		for k := range size {
			g.Cols[0].Ints = append(g.Cols[0].Ints, int64(k)*1_000_003)
		}
		file := writeFile(t, schema, 0, g)
		for _, tail := range [][]byte{nil, {0xff, 0xff, 0xff}, file} {
			b := append(append([]byte(nil), file...), tail...)
			drain := func(src io.Reader) error {
				r, err := NewReader(src)
				if err != nil {
					return err
				}
				for {
					if _, err := r.Next(); err != nil {
						return err
					}
				}
			}
			err := drain(io.LimitReader(bytes.NewReader(b), int64(len(b))))
			if (len(tail) == 0) != errors.Is(err, io.EOF) {
				t.Errorf("%d-byte file, %d trailing bytes in the frame: %v", len(file), len(tail), err)
			}
			if err := drain(bytes.NewReader(b)); !errors.Is(err, io.EOF) {
				t.Errorf("%d-byte file, %d trailing bytes, unframed: %v", len(file), len(tail), err)
			}
		}
	}
}

// TestIntsEveryVarintLength: deltas of every varint length from one to
// ten bytes, both signs and the int64 extremes encode to the reference
// encoder's bytes and decode back, wherever they sit in a chunk (the
// decoder reads an eight-byte word when ten bytes remain and goes byte by
// byte nearer the end); a tenth byte above 1 overflows 64 bits and is an
// error, as in binary.Uvarint.
func TestIntsEveryVarintLength(t *testing.T) {
	var vals []int64
	prev := int64(0)
	for shift := 0; shift < 64; shift += 3 {
		for _, d := range []int64{1 << shift, -(1 << shift), 1<<shift - 1, -(1<<shift - 1)} {
			prev += d
			vals = append(vals, prev)
		}
	}
	vals = append(vals, math.MaxInt64, math.MinInt64, math.MaxInt64, 0, math.MinInt64, -1, math.MaxInt64)
	lengths := make(map[int]bool)
	for i, v := range vals {
		d := v
		if i > 0 {
			d -= vals[i-1]
		}
		lengths[len(binary.AppendVarint(nil, d))] = true
	}
	if len(lengths) != binary.MaxVarintLen64 {
		t.Fatalf("deltas cover varint lengths %v, want 1..%d", lengths, binary.MaxVarintLen64)
	}
	for start := range vals {
		in := vals[start:]
		chunk := appendInts(nil, in)
		if want := encodeInts(in); !bytes.Equal(chunk, want) {
			t.Fatalf("from value %d: appendInts wrote %x, want %x", start, chunk, want)
		}
		got, err := decodeInts(chunk, len(in), nil)
		if err != nil || !reflect.DeepEqual(got, in) {
			t.Fatalf("from value %d: decoded %v, %v; want %v", start, got, err, in)
		}
	}
	over := append(bytes.Repeat([]byte{0xff}, 9), 2)
	for _, chunk := range [][]byte{over, append(append([]byte(nil), over...), 0, 0, 0)} {
		if _, err := decodeInts(chunk, 1, nil); err == nil {
			t.Errorf("%x decoded without error", chunk)
		}
	}
}
