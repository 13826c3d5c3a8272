// Package columnar implements a small Parquet-inspired columnar storage
// format used by the DarkDNS pipeline to persist measurement batches for
// longitudinal analysis (the paper stores Kafka topic contents as Parquet
// in object storage).
//
// A file is a sequence of row groups. Each column chunk is independently
// encoded: strings use dictionary encoding with varint indexes, plain
// strings (for columns whose values are distinct by construction, where a
// dictionary would only cost a map probe per value) are length-prefixed,
// integers use zigzag-varint deltas, booleans use run-length encoding, and
// float64s use mantissa-reversed zigzag deltas (round constants and
// repeated values shrink to a byte or two). The
// format is self-describing: the schema is embedded in the header. A
// Writer encodes row groups and a Reader decodes them; both hold a group
// as one typed slice per column (RowGroup).
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
	"slices"
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
	TypePlainString
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
	case TypePlainString:
		return "plainstring"
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
	case "plainstring":
		return TypePlainString, nil
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

// Values is one column of a row group: the slice of the column's type
// holds one value per row and the others are nil. String and plain
// string columns both use Strs.
type Values struct {
	Strs   []string
	Ints   []int64
	Bools  []bool
	Floats []float64
}

// len returns how many values the slice of type t holds.
func (v *Values) len(t ColType) int {
	switch t {
	case TypeString, TypePlainString:
		return len(v.Strs)
	case TypeInt64:
		return len(v.Ints)
	case TypeBool:
		return len(v.Bools)
	case TypeFloat64:
		return len(v.Floats)
	}
	return -1
}

// RowGroup is a batch of rows held column by column: Cols[i] holds the
// values of Schema[i]. Writer.Write encodes one and Reader.Next decodes
// one.
type RowGroup struct {
	Schema Schema
	Rows   int
	Cols   []Values
}

// Col returns the named column's values, or nil when the schema has no
// such column. A decoder looks each column up once per group.
func (g *RowGroup) Col(name string) *Values {
	if i := g.Schema.Index(name); i >= 0 && i < len(g.Cols) {
		return &g.Cols[i]
	}
	return nil
}

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
	// groupRows is the most rows a row group holds: Write cuts a larger
	// group into groups of this size.
	groupRows int

	// Encoder scratch, reused across columns and groups: the chunk being
	// encoded and a string column's dictionary (value → index), entries
	// in first-seen order and per-row indexes.
	chunk []byte
	dict  map[string]uint64
	order []string
	ids   []uint64
}

// NewWriter creates a writer with the given schema. groupRows caps the
// row-group size (<=0 selects the 8192 default; values above maxGroupRows
// are clamped so any file we produce stays readable).
func NewWriter(w io.Writer, schema Schema, groupRows int) *Writer {
	if groupRows <= 0 {
		groupRows = 8192
	}
	if groupRows > maxGroupRows {
		groupRows = maxGroupRows
	}
	return &Writer{
		w: bufio.NewWriterSize(w, 64<<10), schema: schema, groupRows: groupRows,
		dict: make(map[string]uint64),
	}
}

// Write encodes g's rows as one row group, or as several of at most the
// writer's groupRows rows in order. g.Cols must follow the writer's schema:
// column i holds g.Rows values in the slice of Schema[i]'s type. g.Schema
// is not read. A group of no rows writes nothing.
func (w *Writer) Write(g *RowGroup) error {
	if len(g.Cols) != len(w.schema) {
		return fmt.Errorf("columnar: group has %d columns, schema has %d", len(g.Cols), len(w.schema))
	}
	for i, c := range w.schema {
		if n := g.Cols[i].len(c.Type); n != g.Rows {
			return fmt.Errorf("columnar: column %q holds %d %s values, group has %d rows", c.Name, n, c.Type, g.Rows)
		}
	}
	for lo := 0; lo < g.Rows; lo += w.groupRows {
		if err := w.writeGroup(g.Cols, lo, min(lo+w.groupRows, g.Rows)); err != nil {
			return err
		}
	}
	return nil
}

// Close writes the header if no group did, the end marker, and drains
// buffers.
func (w *Writer) Close() error {
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

// writeGroup encodes rows lo..hi-1 of cols as one row group.
func (w *Writer) writeGroup(cols []Values, lo, hi int) error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(hi-lo))
	if _, err := w.w.Write(tmp[:n]); err != nil {
		return err
	}
	for i, c := range w.schema {
		chunk := w.chunk[:0]
		v := &cols[i]
		switch c.Type {
		case TypeString:
			chunk = w.appendStrings(chunk, v.Strs[lo:hi])
		case TypePlainString:
			chunk = appendPlainStrings(chunk, v.Strs[lo:hi])
		case TypeInt64:
			chunk = appendInts(chunk, v.Ints[lo:hi])
		case TypeBool:
			chunk = appendBools(chunk, v.Bools[lo:hi])
		case TypeFloat64:
			chunk = appendFloats(chunk, v.Floats[lo:hi])
		}
		w.chunk = chunk
		if err := writeBytes(w.w, chunk); err != nil {
			return err
		}
	}
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

// appendStrings dictionary-encodes vals onto dst: varint dictSize, dict
// entries (varint len + bytes), then varint indexes. The dictionary lives
// in the writer's scratch, emptied for each column.
func (w *Writer) appendStrings(dst []byte, vals []string) []byte {
	clear(w.dict)
	w.order, w.ids = w.order[:0], w.ids[:0]
	for _, v := range vals {
		id, ok := w.dict[v]
		if !ok {
			id = uint64(len(w.order))
			w.dict[v] = id
			w.order = append(w.order, v)
		}
		w.ids = append(w.ids, id)
	}
	dst = binary.AppendUvarint(dst, uint64(len(w.order)))
	for _, s := range w.order {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	for _, id := range w.ids {
		dst = binary.AppendUvarint(dst, id)
	}
	return dst
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
	// One walk finds where the dictionary ends; its bytes are then copied
	// to one string that backs every entry, so an entry is a substring of
	// it rather than an allocation, and the indexes after it are not
	// copied.
	rest := b
	for i := uint64(0); i < dictLen; i++ {
		var l uint64
		if l, rest, err = uvarint(rest); err != nil {
			return nil, err
		}
		if uint64(len(rest)) < l {
			return nil, io.ErrUnexpectedEOF
		}
		rest = rest[l:]
	}
	all := string(b[:len(b)-len(rest)])
	dict := make([]string, dictLen)
	for i, off := 0, 0; i < len(dict); i++ {
		l, w := binary.Uvarint(b[off:]) // the walk above checked every entry
		off += w
		dict[i] = all[off : off+int(l)]
		off += int(l)
	}
	b = rest
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

// appendPlainStrings writes each value as varint len + bytes, with no
// dictionary: for columns whose values are distinct by construction.
func appendPlainStrings(dst []byte, vals []string) []byte {
	size := 0
	for _, v := range vals {
		size += len(v)
	}
	dst = slices.Grow(dst, size+len(vals)*binary.MaxVarintLen64)
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// decodePlainStrings decodes n length-prefixed values. The chunk is
// copied to one string and every value is a substring of it: one
// allocation per chunk, not one per value.
func decodePlainStrings(b []byte, n int, dst []string) ([]string, error) {
	if n > len(b) {
		return nil, errShortChunk
	}
	all := string(b)
	out := dst
	if cap(out) < n {
		out = make([]string, n)
	}
	out = out[:n]
	for i, off := 0, 0; i < n; i++ {
		l, w := binary.Uvarint(b[off:])
		if w <= 0 {
			return nil, io.ErrUnexpectedEOF
		}
		off += w
		if l > uint64(len(b)-off) {
			return nil, errors.New("columnar: plain string overruns its chunk")
		}
		out[i] = all[off : off+int(l)]
		off += int(l)
	}
	return out, nil
}

// appendInts zigzag-varint encodes deltas between consecutive values.
// dst is grown once to hold the longest encoding, so each value is written
// with stores that need no capacity check: a one-byte varint as one byte,
// one of up to eight bytes as one eight-byte word of which the varint's
// length counts.
func appendInts(dst []byte, vals []int64) []byte {
	dst = slices.Grow(dst, len(vals)*binary.MaxVarintLen64)
	buf, n := dst[:cap(dst)], len(dst)
	prev := int64(0)
	for _, v := range vals {
		d := v - prev
		prev = v
		ux := uint64(d<<1) ^ uint64(d>>63) // zigzag, as binary.AppendVarint
		switch {
		case ux < 0x80:
			buf[n] = byte(ux)
			n++
		case ux < 1<<56:
			// Spread the 7-bit groups one to a byte and set the
			// continuation bit of every byte but the last.
			k := (bits.Len64(ux) + 6) / 7
			x := ux&0x7f | ux<<1&(0x7f<<8) | ux<<2&(0x7f<<16) | ux<<3&(0x7f<<24) |
				ux<<4&(0x7f<<32) | ux<<5&(0x7f<<40) | ux<<6&(0x7f<<48) | ux<<7&(0x7f<<56)
			x |= 0x8080808080808080 & (1<<(8*(k-1)) - 1)
			binary.LittleEndian.PutUint64(buf[n:], x)
			n += k
		default:
			n += binary.PutUvarint(buf[n:], ux)
		}
	}
	return buf[:n]
}

// errShortChunk rejects a row count the chunk cannot hold: every int,
// float, string index and plain string length takes at least one byte,
// so the check comes before a corrupt count can drive an allocation.
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
		var ux uint64
		switch {
		case len(b) > 0 && b[0] < 0x80:
			// Small deltas (sorted or repeated values) take one byte.
			ux = uint64(b[0])
			b = b[1:]
		case len(b) >= 10:
			// A longer varint, its first eight bytes read as one word: the
			// first byte with its top bit clear ends it, and its 7-bit
			// groups are gathered without a loop.
			x := binary.LittleEndian.Uint64(b)
			// k is the varint's length, 9 when it runs past the word.
			k := bits.TrailingZeros64(^x&0x8080808080808080)>>3 + 1
			x &= 1<<(8*min(k, 8)) - 1 // a shift by 64 keeps all
			ux = x&0x7f | x>>1&(0x7f<<7) | x>>2&(0x7f<<14) | x>>3&(0x7f<<21) |
				x>>4&(0x7f<<28) | x>>5&(0x7f<<35) | x>>6&(0x7f<<42) | x>>7&(0x7f<<49)
			if k == 9 {
				// Bytes 9 and 10 hold bits 56..63; a tenth byte may
				// hold only bit 63, as in binary.Uvarint.
				if ux |= uint64(b[8]&0x7f) << 56; b[8] >= 0x80 {
					if b[9] > 1 {
						return nil, errors.New("columnar: varint overflows 64 bits")
					}
					ux |= uint64(b[9]) << 63
					k = 10
				}
			}
			b = b[k:]
		default:
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

// appendBools run-length encodes: pairs of (varint runLen, value byte).
func appendBools(dst []byte, vals []bool) []byte {
	i := 0
	for i < len(vals) {
		j := i
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(j-i))
		if vals[i] {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		i = j
	}
	return dst
}

func decodeBools(b []byte, n int, dst []bool) ([]bool, error) {
	out := dst
	if cap(out) < n {
		out = make([]bool, n)
	}
	out = out[:n]
	for i := 0; i < n; {
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
		if run == 0 || uint64(n-i) < run {
			return nil, errors.New("columnar: bad bool run length")
		}
		for end := i + int(run); i < end; i++ {
			out[i] = v
		}
	}
	return out, nil
}

// appendFloats stores zigzag-varint deltas of the byte-reversed IEEE 754
// bits. Reversing puts the sign/exponent bytes last, so round constants and
// repeated values differ only in low bits and their deltas varint-encode to
// a byte or two ("zigzag-mantissa" encoding).
func appendFloats(dst []byte, vals []float64) []byte {
	prev := uint64(0)
	for _, v := range vals {
		u := bits.ReverseBytes64(math.Float64bits(v))
		dst = binary.AppendVarint(dst, int64(u-prev))
		prev = u
	}
	return dst
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

// Reader streams row groups from a columnar file.
type Reader struct {
	r      *bufio.Reader
	frame  *io.LimitedReader // the source, when it bounds the file
	schema Schema
	reuse  bool
	bufs   []bytes.Buffer // per-column chunk scratch when reuse is on
	last   *RowGroup
}

// Reuse puts the reader in storage-recycling mode: every call to Next
// may overwrite the column slices of the previously returned RowGroup. A streaming consumer that fully processes each
// group before asking for the next decodes with near-zero per-group
// allocation; a caller that retains returned groups must not enable it.
// Decoded strings are always safe to retain — they never alias scratch.
func (r *Reader) Reuse() { r.reuse = true }

// NewReader validates the header and returns a reader. An
// io.LimitedReader is taken as the file's frame: the read buffer is sized
// to it when it holds less than 64 KiB, so a container of many small
// tables (worldsim's snapshots) pays for what each table holds, and the
// end marker must be the frame's last byte — Next returns an error, not
// io.EOF, when bytes follow it inside the frame.
func NewReader(r io.Reader) (*Reader, error) {
	size := 64 << 10
	frame, _ := r.(*io.LimitedReader)
	if frame != nil && frame.N < int64(size) {
		size = int(max(frame.N, 16))
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
	return &Reader{r: br, frame: frame, schema: schema}, nil
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
		if r.frame != nil && (r.r.Buffered() > 0 || r.frame.N > 0) {
			return nil, fmt.Errorf("columnar: %d bytes after the end marker", int64(r.r.Buffered())+r.frame.N)
		}
		return nil, io.EOF
	}
	if n > maxGroupRows {
		return nil, fmt.Errorf("columnar: row group claims %d rows (max %d)", n, maxGroupRows)
	}
	g := r.last
	if g == nil || !r.reuse {
		g = &RowGroup{Schema: r.schema, Cols: make([]Values, len(r.schema))}
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
		v := &g.Cols[i]
		switch c.Type {
		case TypeString:
			v.Strs, err = decodeStrings(chunk, g.Rows, v.Strs)
		case TypePlainString:
			v.Strs, err = decodePlainStrings(chunk, g.Rows, v.Strs)
		case TypeInt64:
			v.Ints, err = decodeInts(chunk, g.Rows, v.Ints)
		case TypeBool:
			v.Bools, err = decodeBools(chunk, g.Rows, v.Bools)
		case TypeFloat64:
			v.Floats, err = decodeFloats(chunk, g.Rows, v.Floats)
		}
		if err != nil {
			return nil, err
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
