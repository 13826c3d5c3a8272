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

func TestWriteReadSingleGroup(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, measurementSchema(), 0)
	rows := []struct {
		d  string
		ts int64
		a  bool
	}{
		{"example.com", 1700000000, true},
		{"example.com", 1700000600, true},
		{"dead.shop", 1700000000, false},
	}
	for _, r := range rows {
		if err := w.Append(String(r.d), Int(r.ts), Bool(r.a)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
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
	if !reflect.DeepEqual(g.Strs["domain"], []string{"example.com", "example.com", "dead.shop"}) {
		t.Errorf("domains: %v", g.Strs["domain"])
	}
	if !reflect.DeepEqual(g.Ints["ts"], []int64{1700000000, 1700000600, 1700000000}) {
		t.Errorf("ts: %v", g.Ints["ts"])
	}
	if !reflect.DeepEqual(g.Bools["alive"], []bool{true, true, false}) {
		t.Errorf("alive: %v", g.Bools["alive"])
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want io.EOF, got %v", err)
	}
}

func TestMultipleRowGroups(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, measurementSchema(), 10)
	for i := 0; i < 35; i++ {
		if err := w.Append(String(fmt.Sprintf("d%d.com", i%7)), Int(int64(i)), Bool(i%2 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
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
	var buf bytes.Buffer
	w := NewWriter(&buf, measurementSchema(), 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want io.EOF, got %v", err)
	}
}

func TestAppendArityMismatch(t *testing.T) {
	w := NewWriter(io.Discard, measurementSchema(), 0)
	if err := w.Append(String("x")); err == nil {
		t.Error("arity mismatch should fail")
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

func TestTruncatedFile(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, measurementSchema(), 0)
	for i := 0; i < 100; i++ {
		w.Append(String("x.com"), Int(int64(i)), Bool(true))
	}
	w.Close()
	full := buf.Bytes()
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
	var buf bytes.Buffer
	schema := Schema{{Name: "ns", Type: TypeString}}
	w := NewWriter(&buf, schema, 0)
	raw := 0
	for i := 0; i < 10_000; i++ {
		s := fmt.Sprintf("ns%d.cloudflare.com", i%4)
		raw += len(s)
		w.Append(String(s))
	}
	w.Close()
	if buf.Len() > raw/5 {
		t.Errorf("encoded %d bytes for %d raw; dictionary ineffective", buf.Len(), raw)
	}
}

func TestDeltaEncodingOfTimestamps(t *testing.T) {
	// Monotone timestamps (the common case) should use ~1-2 bytes/row.
	var buf bytes.Buffer
	schema := Schema{{Name: "ts", Type: TypeInt64}}
	w := NewWriter(&buf, schema, 0)
	ts := int64(1_700_000_000)
	for i := 0; i < 10_000; i++ {
		ts += 600
		w.Append(Int(ts))
	}
	w.Close()
	if buf.Len() > 3*10_000 {
		t.Errorf("encoded %d bytes for 10k timestamps", buf.Len())
	}
}

func TestPropertyRoundTripRandomRows(t *testing.T) {
	f := func(seed int64, nRows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRows)
		var buf bytes.Buffer
		w := NewWriter(&buf, measurementSchema(), 7) // small groups to cross boundaries
		type row struct {
			s string
			i int64
			b bool
		}
		rows := make([]row, n)
		for i := range rows {
			rows[i] = row{
				s: fmt.Sprintf("d%d.com", rng.Intn(10)),
				i: rng.Int63n(1<<40) - (1 << 39),
				b: rng.Intn(2) == 0,
			}
			if err := w.Append(String(rows[i].s), Int(rows[i].i), Bool(rows[i].b)); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		var got []row
		for {
			g, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return false
			}
			for i := 0; i < g.Rows; i++ {
				got = append(got, row{g.Strs["domain"][i], g.Ints["ts"][i], g.Bools["alive"][i]})
			}
		}
		return reflect.DeepEqual(got, rows) || (len(got) == 0 && n == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWrite(b *testing.B) {
	schema := measurementSchema()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter(io.Discard, schema, 0)
		for j := 0; j < 1000; j++ {
			w.Append(String("example.com"), Int(int64(j)), Bool(true))
		}
		w.Close()
	}
}

func BenchmarkRead(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf, measurementSchema(), 0)
	for j := 0; j < 10_000; j++ {
		w.Append(String(fmt.Sprintf("d%d.com", j%50)), Int(int64(j)), Bool(j%3 == 0))
	}
	w.Close()
	data := buf.Bytes()
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

func TestFloatBytesRoundTrip(t *testing.T) {
	schema := Schema{
		{Name: "rate", Type: TypeFloat64},
		{Name: "blob", Type: TypeBytes},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, schema, 5) // small groups to cross boundaries
	floats := []float64{0, 1.5, 1.5, -2.25, 0.001, math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0.93, 0.93, 0.94}
	var blobs [][]byte
	for i, f := range floats {
		b := []byte(fmt.Sprintf("blob-%d", i))
		if i%3 == 0 {
			b = nil // empty values must survive
		}
		blobs = append(blobs, b)
		if err := w.Append(Float(f), Bytes(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var gotF []float64
	var gotB [][]byte
	for {
		g, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		gotF = append(gotF, g.Floats["rate"]...)
		gotB = append(gotB, g.Bytes["blob"]...)
	}
	if len(gotF) != len(floats) {
		t.Fatalf("got %d floats, want %d", len(gotF), len(floats))
	}
	for i, f := range floats {
		if math.Float64bits(gotF[i]) != math.Float64bits(f) {
			t.Errorf("float[%d] = %v, want %v", i, gotF[i], f)
		}
	}
	for i, b := range blobs {
		if !bytes.Equal(gotB[i], b) {
			t.Errorf("bytes[%d] = %q, want %q", i, gotB[i], b)
		}
	}
}

func TestFloatNaNRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Schema{{Name: "f", Type: TypeFloat64}}, 0)
	w.Append(Float(math.NaN()))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(g.Floats["f"][0]) {
		t.Errorf("NaN decoded to %v", g.Floats["f"][0])
	}
}

func TestFloatDeltaCompression(t *testing.T) {
	// Repeated round constants (sweep-cell parameters) should shrink to a
	// byte or two per value under the mantissa-reversed delta encoding.
	var buf bytes.Buffer
	w := NewWriter(&buf, Schema{{Name: "scale", Type: TypeFloat64}}, 0)
	for i := 0; i < 10_000; i++ {
		w.Append(Float(0.02))
	}
	w.Close()
	if buf.Len() > 3*10_000 {
		t.Errorf("encoded %d bytes for 10k repeated floats", buf.Len())
	}
}

func TestWriterFlushAlignsGroups(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Schema{{Name: "n", Type: TypeInt64}}, 0)
	for i := 0; i < 3; i++ {
		w.Append(Int(int64(i)))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		w.Append(Int(int64(i)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for {
		g, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, g.Rows)
	}
	if !reflect.DeepEqual(sizes, []int{3, 2}) {
		t.Errorf("group sizes = %v, want [3 2]", sizes)
	}
}

func TestCorruptInputsReturnErrors(t *testing.T) {
	// Build a small valid file, then corrupt it in targeted ways; every
	// variant must surface an error without panicking.
	var buf bytes.Buffer
	w := NewWriter(&buf, measurementSchema(), 0)
	for i := 0; i < 10; i++ {
		w.Append(String("x.com"), Int(int64(i)), Bool(true))
	}
	w.Close()
	full := buf.Bytes()

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
// at a time must decode identically to the default mode, strings must
// survive the next group's decode (they never alias scratch), and byte
// values must be correct at the moment their group is current.
func TestReaderReuse(t *testing.T) {
	schema, err := ParseSchema("s:string,i:int64,f:float64,raw:bytes,ok:bool")
	if err != nil {
		t.Fatal(err)
	}
	const rows, groupRows = 25, 4
	var buf bytes.Buffer
	w := NewWriter(&buf, schema, groupRows)
	for i := 0; i < rows; i++ {
		err := w.Append(
			String(fmt.Sprintf("row-%02d", i)), Int(int64(i*3)), Float(float64(i)/7),
			Bytes([]byte{byte(i), byte(i + 1)}), Bool(i%3 == 0))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r.Reuse()
	var keptStrs []string // strings retained across groups must stay valid
	i := 0
	for {
		g, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < g.Rows; k++ {
			if want := fmt.Sprintf("row-%02d", i); g.Strs["s"][k] != want {
				t.Fatalf("row %d: s = %q, want %q", i, g.Strs["s"][k], want)
			}
			if g.Ints["i"][k] != int64(i*3) {
				t.Fatalf("row %d: i = %d", i, g.Ints["i"][k])
			}
			if g.Floats["f"][k] != float64(i)/7 {
				t.Fatalf("row %d: f = %v", i, g.Floats["f"][k])
			}
			if !bytes.Equal(g.Bytes["raw"][k], []byte{byte(i), byte(i + 1)}) {
				t.Fatalf("row %d: raw = %v", i, g.Bytes["raw"][k])
			}
			if g.Bools["ok"][k] != (i%3 == 0) {
				t.Fatalf("row %d: ok = %v", i, g.Bools["ok"][k])
			}
			keptStrs = append(keptStrs, g.Strs["s"][k])
			i++
		}
	}
	if i != rows {
		t.Fatalf("rows = %d, want %d", i, rows)
	}
	for j, s := range keptStrs {
		if want := fmt.Sprintf("row-%02d", j); s != want {
			t.Fatalf("retained string %d corrupted by reuse: %q, want %q", j, s, want)
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

func encodeBytesCol(vals [][]byte) []byte {
	var out []byte
	for _, v := range vals {
		out = binary.AppendUvarint(out, uint64(len(v)))
		out = append(out, v...)
	}
	return out
}

// referenceFile encodes groups of rows as a DCOL file with the reference
// encoders, one row group per element of groups.
func referenceFile(schema Schema, groups [][][]Value) []byte {
	frame := func(out, b []byte) []byte {
		return append(binary.AppendUvarint(out, uint64(len(b))), b...)
	}
	out := frame([]byte(magic), []byte(schema.String()))
	for _, rows := range groups {
		if len(rows) == 0 {
			continue
		}
		out = binary.AppendUvarint(out, uint64(len(rows)))
		for i, c := range schema {
			var chunk []byte
			switch c.Type {
			case TypeString:
				chunk = encodeStrings(column(rows, func(v Value) string { return v.S }, i))
			case TypeInt64:
				chunk = encodeInts(column(rows, func(v Value) int64 { return v.I }, i))
			case TypeBool:
				chunk = encodeBools(column(rows, func(v Value) bool { return v.B }, i))
			case TypeFloat64:
				chunk = encodeFloats(column(rows, func(v Value) float64 { return v.F }, i))
			case TypeBytes:
				chunk = encodeBytesCol(column(rows, func(v Value) []byte { return v.Raw }, i))
			}
			out = frame(out, chunk)
		}
	}
	return binary.AppendUvarint(out, 0)
}

func column[T any](rows [][]Value, get func(Value) T, i int) []T {
	out := make([]T, len(rows))
	for k, r := range rows {
		out[k] = get(r[i])
	}
	return out
}

// writeGroups writes groups through a Writer, ending each with Flush.
func writeGroups(t testing.TB, schema Schema, groups [][][]Value, groupRows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, schema, groupRows)
	for _, rows := range groups {
		for _, r := range rows {
			if err := w.Append(r...); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriterMatchesReference holds the Writer's bytes equal to the
// reference encoders' across several groups and several string and bytes
// columns. Groups and columns differ in size and cardinality in both
// directions (a small dictionary after a large one, a short bytes column
// after a long one), so a dictionary, index or chunk buffer leaking from
// one column or group into the next changes the output.
func TestWriterMatchesReference(t *testing.T) {
	schema, err := ParseSchema("a:string,n:int64,raw:bytes,b:string,ok:bool,f:float64,c:string,tail:bytes")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var groups [][][]Value
	for _, size := range []int{300, 5, 1, 0, 120, 2} {
		rows := make([][]Value, size)
		for k := range rows {
			raw := make([]byte, rng.Intn(40))
			rng.Read(raw)
			rows[k] = []Value{
				String(fmt.Sprintf("d%d.example", rng.Intn(size*2+1))),
				Int(rng.Int63n(1 << 40)),
				Bytes(raw),
				String([]string{"com", "net", "org"}[rng.Intn(3)]),
				Bool(rng.Intn(3) == 0),
				Float(rng.NormFloat64()),
				String(""),
				Bytes(raw[:min(len(raw), 2)]),
			}
		}
		groups = append(groups, rows)
	}
	if got, want := writeGroups(t, schema, groups, 0), referenceFile(schema, groups); !bytes.Equal(got, want) {
		t.Fatalf("writer output (%d bytes) differs from the reference encoders' (%d bytes)", len(got), len(want))
	}
	// The row threshold cuts groups inside the Flush-aligned ones.
	var cut [][][]Value
	for _, rows := range groups {
		for len(rows) > 0 {
			n := min(len(rows), 7)
			cut, rows = append(cut, rows[:n]), rows[n:]
		}
	}
	if got, want := writeGroups(t, schema, groups, 7), referenceFile(schema, cut); !bytes.Equal(got, want) {
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
	var groups [][][]Value
	for _, size := range []int{3, 40_000} {
		rows := make([][]Value, size)
		for k := range rows {
			rows[k] = []Value{Int(int64(k) * 1_000_003)}
		}
		groups = append(groups, rows)
	}
	for _, g := range groups {
		file := writeGroups(t, schema, [][][]Value{g}, 0)
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
