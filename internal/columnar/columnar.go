// Package columnar implements a small Parquet-inspired columnar storage
// format used by the DarkDNS pipeline to persist measurement batches for
// longitudinal analysis (the paper stores Kafka topic contents as Parquet
// in object storage).
//
// A file is a sequence of row groups. Each column chunk is independently
// encoded: strings use dictionary encoding with varint indexes, integers
// use zigzag-varint deltas, booleans use run-length encoding, float64s
// use mantissa-reversed zigzag deltas (round constants and repeated
// values shrink to a byte or two), and raw byte columns are
// length-prefixed. The format is self-describing: the schema is embedded
// in the header.
//
// Layout:
//
//	magic "DCOL1\n"
//	varint schemaLen, schema (name:type pairs)
//	row groups:
//	  varint rowCount (0 = end of file)
//	  per column: varint chunkLen, chunk bytes
package columnar

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
)

// ColType is a column's value type.
type ColType uint8

// Supported column types.
const (
	TypeString ColType = iota
	TypeInt64
	TypeBool
	TypeFloat64
	TypeBytes
)

// String returns the schema mnemonic.
func (t ColType) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt64:
		return "int64"
	case TypeBool:
		return "bool"
	case TypeFloat64:
		return "float64"
	case TypeBytes:
		return "bytes"
	}
	return fmt.Sprintf("type%d", uint8(t))
}

func parseColType(s string) (ColType, error) {
	switch s {
	case "string":
		return TypeString, nil
	case "int64":
		return TypeInt64, nil
	case "bool":
		return TypeBool, nil
	case "float64":
		return TypeFloat64, nil
	case "bytes":
		return TypeBytes, nil
	}
	return 0, fmt.Errorf("columnar: unknown column type %q", s)
}

// Column describes one schema column.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered column list.
type Schema []Column

// String renders "name:type,name:type".
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.Name + ":" + c.Type.String()
	}
	return strings.Join(parts, ",")
}

// ParseSchema inverts Schema.String.
func ParseSchema(s string) (Schema, error) {
	if s == "" {
		return nil, errors.New("columnar: empty schema")
	}
	parts := strings.Split(s, ",")
	out := make(Schema, 0, len(parts))
	for _, p := range parts {
		name, ts, ok := strings.Cut(p, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("columnar: bad schema field %q", p)
		}
		ct, err := parseColType(ts)
		if err != nil {
			return nil, err
		}
		out = append(out, Column{Name: name, Type: ct})
	}
	return out, nil
}

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Value is a dynamically typed cell.
type Value struct {
	S   string
	I   int64
	B   bool
	F   float64
	Raw []byte
}

// String builds a string cell.
func String(s string) Value { return Value{S: s} }

// Int builds an int64 cell.
func Int(i int64) Value { return Value{I: i} }

// Bool builds a bool cell.
func Bool(b bool) Value { return Value{B: b} }

// Float builds a float64 cell.
func Float(f float64) Value { return Value{F: f} }

// Bytes builds a raw-bytes cell.
func Bytes(b []byte) Value { return Value{Raw: b} }

const magic = "DCOL1\n"

// maxGroupRows caps both the writer's row-group size and the row count a
// reader will accept for a single group, so a corrupt or hostile header
// cannot make the decoder allocate unboundedly.
const maxGroupRows = 1 << 24

// Writer writes row groups to an underlying writer.
type Writer struct {
	w       *bufio.Writer
	schema  Schema
	started bool

	// pending row-group buffers, one per column
	strs   [][]string
	ints   [][]int64
	bools  [][]bool
	floats [][]float64
	raws   [][][]byte
	rows   int
	// groupRows is the row-group flush threshold.
	groupRows int
}

// NewWriter creates a writer with the given schema. groupRows controls the
// row-group size (<=0 selects the 8192 default; values above maxGroupRows
// are clamped so any file we produce stays readable).
func NewWriter(w io.Writer, schema Schema, groupRows int) *Writer {
	if groupRows <= 0 {
		groupRows = 8192
	}
	if groupRows > maxGroupRows {
		groupRows = maxGroupRows
	}
	cw := &Writer{
		w: bufio.NewWriterSize(w, 64<<10), schema: schema, groupRows: groupRows,
		strs: make([][]string, len(schema)), ints: make([][]int64, len(schema)),
		bools: make([][]bool, len(schema)), floats: make([][]float64, len(schema)),
		raws: make([][][]byte, len(schema)),
	}
	return cw
}

// Append adds one row. The values must match the schema arity and types.
func (w *Writer) Append(row ...Value) error {
	if len(row) != len(w.schema) {
		return fmt.Errorf("columnar: row has %d values, schema has %d", len(row), len(w.schema))
	}
	for i, c := range w.schema {
		switch c.Type {
		case TypeString:
			w.strs[i] = append(w.strs[i], row[i].S)
		case TypeInt64:
			w.ints[i] = append(w.ints[i], row[i].I)
		case TypeBool:
			w.bools[i] = append(w.bools[i], row[i].B)
		case TypeFloat64:
			w.floats[i] = append(w.floats[i], row[i].F)
		case TypeBytes:
			w.raws[i] = append(w.raws[i], row[i].Raw)
		}
	}
	w.rows++
	if w.rows >= w.groupRows {
		return w.flushGroup()
	}
	return nil
}

// Flush ends the current row group early, writing any pending rows. It lets
// callers align row-group boundaries with natural batch boundaries (the
// world snapshot writes one group per layout chunk).
func (w *Writer) Flush() error { return w.flushGroup() }

// Close flushes pending rows, writes the end marker and drains buffers.
func (w *Writer) Close() error {
	if err := w.flushGroup(); err != nil {
		return err
	}
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], 0) // rowCount 0 = EOF
	if _, err := w.w.Write(tmp[:n]); err != nil {
		return err
	}
	return w.w.Flush()
}

func (w *Writer) writeHeader() error {
	w.started = true
	if _, err := w.w.WriteString(magic); err != nil {
		return err
	}
	return writeBytes(w.w, []byte(w.schema.String()))
}

func (w *Writer) flushGroup() error {
	if w.rows == 0 {
		return nil
	}
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(w.rows))
	if _, err := w.w.Write(tmp[:n]); err != nil {
		return err
	}
	for i, c := range w.schema {
		var chunk []byte
		switch c.Type {
		case TypeString:
			chunk = encodeStrings(w.strs[i])
			w.strs[i] = w.strs[i][:0]
		case TypeInt64:
			chunk = encodeInts(w.ints[i])
			w.ints[i] = w.ints[i][:0]
		case TypeBool:
			chunk = encodeBools(w.bools[i])
			w.bools[i] = w.bools[i][:0]
		case TypeFloat64:
			chunk = encodeFloats(w.floats[i])
			w.floats[i] = w.floats[i][:0]
		case TypeBytes:
			chunk = encodeBytesCol(w.raws[i])
			w.raws[i] = w.raws[i][:0]
		}
		if err := writeBytes(w.w, chunk); err != nil {
			return err
		}
	}
	w.rows = 0
	return nil
}

func writeBytes(w *bufio.Writer, b []byte) error {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(b)))
	if _, err := w.Write(tmp[:n]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// Encodings ------------------------------------------------------------------

// encodeStrings dictionary-encodes: varint dictSize, dict entries
// (varint len + bytes), then varint indexes.
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

func decodeStrings(b []byte, n int, dst []string) ([]string, error) {
	dictLen, b, err := uvarint(b)
	if err != nil {
		return nil, err
	}
	// Each dict entry needs at least one length byte, so the dict can never
	// hold more entries than remaining bytes; rejecting here keeps a corrupt
	// header from driving a huge allocation.
	if dictLen > uint64(len(b)) {
		return nil, errors.New("columnar: dictionary larger than chunk")
	}
	// One string conversion backs every dict entry: each entry is a
	// substring of the chunk copied once, not an allocation per value —
	// for high-cardinality columns (domain names) this is the difference
	// between 1 alloc and 10^5 allocs per group.
	all := string(b)
	dict := make([]string, dictLen)
	for i := range dict {
		var l uint64
		if l, b, err = uvarint(b); err != nil {
			return nil, err
		}
		if uint64(len(b)) < l {
			return nil, io.ErrUnexpectedEOF
		}
		off := len(all) - len(b)
		dict[i] = all[off : off+int(l)]
		b = b[l:]
	}
	if n > len(b) {
		return nil, errShortChunk
	}
	out := dst
	if cap(out) < n {
		out = make([]string, n)
	}
	out = out[:n]
	for i := 0; i < n; i++ {
		var idx uint64
		if idx, b, err = uvarint(b); err != nil {
			return nil, err
		}
		if idx >= dictLen {
			return nil, errors.New("columnar: dictionary index out of range")
		}
		out[i] = dict[idx]
	}
	return out, nil
}

// encodeInts zigzag-varint encodes deltas between consecutive values.
func encodeInts(vals []int64) []byte {
	var out []byte
	prev := int64(0)
	for _, v := range vals {
		out = binary.AppendVarint(out, v-prev)
		prev = v
	}
	return out
}

// errShortChunk rejects a row count the chunk cannot hold: every int,
// float, string index and bytes length takes at least one byte, so the
// check comes before a corrupt count can drive an allocation.
var errShortChunk = errors.New("columnar: chunk shorter than its row count")

func decodeInts(b []byte, n int, dst []int64) ([]int64, error) {
	if n > len(b) {
		return nil, errShortChunk
	}
	out := dst
	if cap(out) < n {
		out = make([]int64, n)
	}
	out = out[:n]
	prev := int64(0)
	for i := 0; i < n; i++ {
		// Delta encoding makes single-byte varints the overwhelmingly
		// common case; decode them inline and fall back to the generic
		// reader only for multi-byte deltas.
		var ux uint64
		if len(b) > 0 && b[0] < 0x80 {
			ux = uint64(b[0])
			b = b[1:]
		} else {
			v, w := binary.Uvarint(b)
			if w <= 0 {
				return nil, io.ErrUnexpectedEOF
			}
			ux = v
			b = b[w:]
		}
		d := int64(ux >> 1)
		if ux&1 != 0 {
			d = ^d
		}
		prev += d
		out[i] = prev
	}
	return out, nil
}

// encodeBools run-length encodes: pairs of (varint runLen, value byte).
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

func decodeBools(b []byte, n int, dst []bool) ([]bool, error) {
	out := dst[:0]
	if cap(out) < n {
		out = make([]bool, 0, n)
	}
	for len(out) < n {
		run, rest, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		if len(b) == 0 {
			return nil, io.ErrUnexpectedEOF
		}
		v := b[0] == 1
		b = b[1:]
		if run == 0 || uint64(n-len(out)) < run {
			return nil, errors.New("columnar: bad bool run length")
		}
		for k := uint64(0); k < run; k++ {
			out = append(out, v)
		}
	}
	return out, nil
}

// encodeFloats stores zigzag-varint deltas of the byte-reversed IEEE 754
// bits. Reversing puts the sign/exponent bytes last, so round constants and
// repeated values differ only in low bits and their deltas varint-encode to
// a byte or two ("zigzag-mantissa" encoding).
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

func decodeFloats(b []byte, n int, dst []float64) ([]float64, error) {
	if n > len(b) {
		return nil, errShortChunk
	}
	out := dst
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	prev := uint64(0)
	for i := 0; i < n; i++ {
		d, rest, err := varint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		prev += uint64(d)
		out[i] = math.Float64frombits(bits.ReverseBytes64(prev))
	}
	return out, nil
}

// encodeBytesCol length-prefixes each value: varint len + raw bytes.
func encodeBytesCol(vals [][]byte) []byte {
	var out []byte
	for _, v := range vals {
		out = binary.AppendUvarint(out, uint64(len(v)))
		out = append(out, v...)
	}
	return out
}

func decodeBytesCol(b []byte, n int, dst [][]byte) ([][]byte, error) {
	if n > len(b) {
		return nil, errShortChunk
	}
	out := dst
	if cap(out) < n {
		out = make([][]byte, n)
	}
	out = out[:n]
	for i := 0; i < n; i++ {
		l, rest, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		if uint64(len(b)) < l {
			return nil, io.ErrUnexpectedEOF
		}
		// Values alias the chunk buffer: readBytes hands each group a
		// fresh allocation, so the sub-slices stay valid for the life of
		// the RowGroup without a per-value copy.
		out[i] = b[:l:l]
		b = b[l:]
	}
	return out, nil
}

func uvarint(b []byte) (uint64, []byte, error) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), b[1:], nil
	}
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return v, b[n:], nil
}

func varint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return v, b[n:], nil
}

// Reader --------------------------------------------------------------------

// RowGroup is a decoded batch of rows.
type RowGroup struct {
	Schema Schema
	Rows   int
	Strs   map[string][]string
	Ints   map[string][]int64
	Bools  map[string][]bool
	Floats map[string][]float64
	Bytes  map[string][][]byte
}

// Reader streams row groups from a columnar file.
type Reader struct {
	r      *bufio.Reader
	schema Schema
	reuse  bool
	bufs   []bytes.Buffer // per-column chunk scratch when reuse is on
	last   *RowGroup
}

// Reuse puts the reader in storage-recycling mode: every call to Next
// may overwrite the maps, slices, and byte values of the previously
// returned RowGroup. A streaming consumer that fully processes each
// group before asking for the next decodes with near-zero per-group
// allocation; a caller that retains returned groups must not enable it.
// Decoded strings are always safe to retain — they never alias scratch.
func (r *Reader) Reuse() { r.reuse = true }

// NewReader validates the header and returns a reader. Its read buffer is
// 64 KiB, or the length of an io.LimitedReader that holds less: a
// container of many small tables (worldsim's snapshots) pays for what
// each table holds, not 64 KiB apiece.
func NewReader(r io.Reader) (*Reader, error) {
	size := 64 << 10
	if lr, ok := r.(*io.LimitedReader); ok && lr.N < int64(size) {
		size = int(max(lr.N, 16))
	}
	br := bufio.NewReaderSize(r, size)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("columnar: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, errors.New("columnar: bad magic")
	}
	sb, err := readBytes(br)
	if err != nil {
		return nil, err
	}
	schema, err := ParseSchema(string(sb))
	if err != nil {
		return nil, err
	}
	return &Reader{r: br, schema: schema}, nil
}

// Schema returns the file schema.
func (r *Reader) Schema() Schema { return r.schema }

// Next returns the next row group, or io.EOF after the last one.
func (r *Reader) Next() (*RowGroup, error) {
	n, err := binary.ReadUvarint(r.r)
	if err != nil {
		return nil, fmt.Errorf("columnar: reading row count: %w", err)
	}
	if n == 0 {
		return nil, io.EOF
	}
	if n > maxGroupRows {
		return nil, fmt.Errorf("columnar: row group claims %d rows (max %d)", n, maxGroupRows)
	}
	g := r.last
	if g == nil || !r.reuse {
		g = &RowGroup{
			Schema: r.schema,
			Strs:   make(map[string][]string), Ints: make(map[string][]int64), Bools: make(map[string][]bool),
			Floats: make(map[string][]float64), Bytes: make(map[string][][]byte),
		}
	}
	g.Rows = int(n)
	if r.reuse {
		r.last = g
		if r.bufs == nil {
			r.bufs = make([]bytes.Buffer, len(r.schema))
		}
	}
	for i, c := range r.schema {
		var chunk []byte
		var err error
		if r.reuse {
			chunk, err = readBytesInto(r.r, &r.bufs[i])
		} else {
			chunk, err = readBytes(r.r)
		}
		if err != nil {
			return nil, err
		}
		// Passing the group's previous column slice lets each decoder
		// recycle it when capacity allows; on a fresh group the slice is
		// nil and the decoder allocates.
		switch c.Type {
		case TypeString:
			if g.Strs[c.Name], err = decodeStrings(chunk, g.Rows, g.Strs[c.Name]); err != nil {
				return nil, err
			}
		case TypeInt64:
			if g.Ints[c.Name], err = decodeInts(chunk, g.Rows, g.Ints[c.Name]); err != nil {
				return nil, err
			}
		case TypeBool:
			if g.Bools[c.Name], err = decodeBools(chunk, g.Rows, g.Bools[c.Name]); err != nil {
				return nil, err
			}
		case TypeFloat64:
			if g.Floats[c.Name], err = decodeFloats(chunk, g.Rows, g.Floats[c.Name]); err != nil {
				return nil, err
			}
		case TypeBytes:
			if g.Bytes[c.Name], err = decodeBytesCol(chunk, g.Rows, g.Bytes[c.Name]); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

func readBytes(r *bufio.Reader) ([]byte, error) {
	var buf bytes.Buffer
	return readBytesInto(r, &buf)
}

func readBytesInto(r *bufio.Reader, buf *bytes.Buffer) ([]byte, error) {
	l, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if l > math.MaxInt64 {
		return nil, errors.New("columnar: absurd chunk length")
	}
	// Grow via CopyN instead of a single make([]byte, l): a corrupt varint
	// can claim an enormous length, and the allocation must be bounded by
	// what the stream actually delivers. Pre-growing up to a 1 MiB cap
	// keeps honest chunks to one allocation without trusting the header.
	buf.Reset()
	buf.Grow(int(min(l, 1<<20)))
	if _, err := io.CopyN(buf, r, int64(l)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}
