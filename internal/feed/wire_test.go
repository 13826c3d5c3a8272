package feed

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"darkdns/internal/stream"
)

// The reflective codec is the definition of the wire format; the two
// functions below are it, kept as the references wire.go is held to.

func referenceEncodeEntry(e Entry) ([]byte, error) { return json.Marshal(e) }

func referenceDecodeFrame(line []byte) (*Frame, error) {
	var f Frame
	if err := json.Unmarshal(line, &f); err != nil {
		return nil, fmt.Errorf("feed: bad frame: %w", err)
	}
	if f.Kind == "" {
		return nil, fmt.Errorf("feed: frame without kind: %q", line)
	}
	return &f, nil
}

// checkEncodeAgrees holds appendEntry to the reference on one entry:
// same error-ness, same bytes after an untouched prefix, and dst back at
// its original length on failure.
func checkEncodeAgrees(t *testing.T, e Entry) {
	t.Helper()
	const prefix = "prefix,"
	got, err := appendEntry([]byte(prefix), e.Offset, e.Time, e.Domain, []byte(e.Raw))
	want, werr := referenceEncodeEntry(e)
	if (err != nil) != (werr != nil) {
		t.Fatalf("%+v: appendEntry error = %v, reference error = %v", e, err, werr)
	}
	if err != nil {
		if string(got) != prefix {
			t.Fatalf("%+v: failed encode left dst = %q", e, got)
		}
		return
	}
	if string(got) != prefix+string(want) {
		t.Fatalf("%+v:\n got %s\nwant %s%s", e, got, prefix, want)
	}
}

func TestAppendEntryMatchesReference(t *testing.T) {
	ns := time.Date(2024, 2, 29, 23, 59, 59, 123456789, time.UTC)
	cases := []Entry{
		{Offset: 0, Time: t0, Domain: "a.com"},
		{Offset: 7, Time: t0, Domain: "a.com", Raw: "a.com. NS ns1"},
		{Offset: 1<<63 - 1, Time: t0, Domain: "max.com", Raw: "{}"},
		{Offset: -1, Time: t0, Domain: "neg.com"},
		{Time: t0, Domain: "", Raw: ""},
		{Time: t0, Domain: `q"uote\back`, Raw: `{"domain":"x.shop","log":"a\\b"}`},
		{Time: t0, Domain: "ws\b\f\n\r\t", Raw: "\b\f\n\r\t"},
		{Time: t0, Domain: "ctl\x00\x01\x0b\x1f", Raw: "\x00\x1e"},
		{Time: t0, Domain: "<script>&amp;</script>", Raw: "a<b>c&d"},
		{Time: t0, Domain: "del\x7f.com", Raw: "\x7f"},
		{Time: t0, Domain: "sep\u2028\u2029.com", Raw: "\u2028x\u2029"},
		{Time: t0, Domain: "bücher.de", Raw: "日本語 \U0001F600 é"},
		{Time: t0, Domain: "bad\xff.com", Raw: "\xe2\x82"},
		{Time: t0, Domain: "\xc0\xaf", Raw: "\xed\xa0\x80 surrogate half, \xf8 overlong lead"},
		{Time: t0, Domain: "tail\xe2", Raw: "mid\xe2\x82x"},
		{Time: ns, Domain: "nanos.com"},
		{Time: ns.In(time.FixedZone("", 5*3600+30*60)), Domain: "east.com"},
		{Time: ns.In(time.FixedZone("", -(9*3600 + 45*60))), Domain: "west.com"},
		{Time: time.Time{}, Domain: "zero.com"},
		{Time: time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), Domain: "year0.com"},
		{Time: time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), Domain: "year9999.com"},
		// Refused by RFC 3339, so by both encoders.
		{Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), Domain: "year10000.com", Raw: "x"},
		{Time: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC), Domain: "bc.com"},
		{Time: t0.In(time.FixedZone("", 25*3600)), Domain: "zone25.com"},
	}
	for _, e := range cases {
		checkEncodeAgrees(t, e)
	}
	if _, err := appendEntry(nil, 1, poisonTime, "p.com", nil); err == nil {
		t.Fatal("year 10000 encoded")
	}
}

// FuzzAppendEntry holds the entry encoder to json.Marshal on arbitrary
// offsets, instants, zones, names and payloads.
func FuzzAppendEntry(f *testing.F) {
	f.Add(int64(0), int64(1698796800), int64(0), 0, "a.com", []byte(nil))
	f.Add(int64(42), int64(1698796800), int64(123456789), 19800, `q"\<>&.com`, []byte(`{"k":"v"}`))
	f.Add(int64(-3), int64(253402300800), int64(0), 0, "year10000.com", []byte("\xff\u2028\x01"))
	f.Add(int64(9), int64(-62198755200), int64(5), -35100, "bücher\x7f.de", []byte("\xe2\x82"))
	f.Add(int64(1), int64(0), int64(0), 90000, "zone25.com", []byte("\t"))
	f.Fuzz(func(t *testing.T, offset, sec, nsec int64, zone int, domain string, raw []byte) {
		at := time.Unix(sec, nsec)
		if zone != 0 {
			at = at.In(time.FixedZone("", zone%(48*3600)))
		} else {
			at = at.UTC()
		}
		checkEncodeAgrees(t, Entry{Offset: offset, Time: at, Domain: domain, Raw: string(raw)})
	})
}

// checkDecodeAgrees holds decodeFrame to the reference on one line:
// same error-ness, deeply equal frames, identical re-encoded bytes —
// with a fresh entry buffer and with a dirty reused one.
func checkDecodeAgrees(t *testing.T, line []byte) {
	t.Helper()
	want, werr := referenceDecodeFrame(line)
	dirty := make([]Entry, 3, 8)
	for i := range dirty {
		dirty[i] = Entry{Offset: 99, Time: t0, Domain: "stale.com", Raw: "stale"}
	}
	for _, buf := range [][]Entry{nil, dirty[:0]} {
		got, err := decodeFrame(line, buf)
		if (err != nil) != (werr != nil) {
			t.Fatalf("%q: decodeFrame error = %v, reference error = %v", line, err, werr)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n got %+v\nwant %+v", line, got, want)
		}
		b1, err1 := encodeFrame(got)
		b2, err2 := encodeFrame(want)
		if (err1 != nil) != (err2 != nil) || !bytes.Equal(b1, b2) {
			t.Fatalf("%q re-encodes as\n%s (%v)\nreference\n%s (%v)", line, b1, err1, b2, err2)
		}
	}
}

// dataLine is msgs as the one DATA line the server would write for them,
// without its newline.
func dataLine(t testing.TB, msgs []stream.Message) []byte {
	t.Helper()
	_, ents := encodeBatch(nil, nil, msgs)
	for _, e := range ents {
		if e.enc == nil {
			t.Fatalf("entry %d does not encode", e.off)
		}
	}
	line := appendDataFrame(nil, ents)
	return line[:len(line)-1]
}

// benchBatch is a 256-entry batch shaped like the ledger's feed input:
// each value is a JSON document like the ones core.Pipeline publishes.
func benchBatch() []stream.Message {
	msgs := make([]stream.Message, 256)
	for i := range msgs {
		d := fmt.Sprintf("d%d.shop", i)
		at := t0.Add(time.Duration(i) * time.Second)
		msgs[i] = stream.Message{
			Offset: int64(i), Time: at, Key: d,
			Value: fmt.Appendf(nil, `{"domain":%q,"seen":%q,"log":%q}`, d, at.Format(time.RFC3339), "argon2024"),
		}
	}
	return msgs
}

// canonicalFrames are DATA lines as the server writes them, covering
// what the fast decoder must handle itself.
func canonicalFrames(t testing.TB) [][]byte {
	var lines [][]byte
	for _, msgs := range [][]stream.Message{
		{{Offset: 3, Time: t0, Key: "a.com", Value: []byte("a.com. NS ns1")}},
		{{Offset: 0, Time: t0, Key: "noraw.com"}, {Offset: 1, Time: t0.Add(time.Second), Key: "b.com", Value: []byte("{}")}},
		{{Offset: 5, Time: t0, Key: `q"\/`, Value: []byte(`{"domain":"x.shop","log":"a\\b"}`)}},
		{{Offset: 6, Time: t0, Key: "<b>&.com", Value: []byte("\b\f\n\r\t\x00\x1f\u2028\u2029")}},
		{{Offset: 7, Time: t0, Key: "bücher.de", Value: []byte("日本語 \U0001F600 \x7f")}},
		{{Offset: 8, Time: t0.In(time.FixedZone("", 19800)).Add(123456789), Key: "zone.com", Value: []byte(strings.Repeat(`"long"`, 100))}},
		{{Offset: 99999999999999999, Time: time.Time{}, Key: "", Value: []byte("x")}}, // next has 18 digits
	} {
		lines = append(lines, dataLine(t, msgs))
	}
	return lines
}

// nearMisses are lines one step away from canonical. Each must take the
// json.Unmarshal fallback — some decode there, some are errors — and
// still agree with the reference.
func nearMisses() [][]byte {
	const e0 = `{"offset":1,"time":"2023-11-01T00:00:00Z","domain":"a.com","raw":"r"}`
	frame := func(entries, tail string) []byte {
		return []byte(`{"frame":"data","entries":[` + entries + `]` + tail)
	}
	lines := [][]byte{
		frame(`{"time":"2023-11-01T00:00:00Z","offset":1,"domain":"a.com"}`, `,"next":2}`), // reordered keys
		frame(`{"offset":1,"time":"2023-11-01T00:00:00Z","raw":"r","domain":"a.com"}`, `,"next":2}`),
		frame(`{"offset":1, "time":"2023-11-01T00:00:00Z","domain":"a.com"}`, `,"next":2}`), // space after a comma
		frame(e0+`, `+e0, `,"next":2}`),
		frame(e0, `,"next": 2}`),
		frame(e0, `,"next":2} `),
		frame(e0, `,"next":2}`+"\n"),
		frame(`{"offset":007,"time":"2023-11-01T00:00:00Z","domain":"a.com"}`, `,"next":2}`),
		frame(`{"offset":1234567890123456789,"time":"2023-11-01T00:00:00Z","domain":"a.com"}`, `,"next":2}`), // 19 digits, fits
		frame(`{"offset":9999999999999999999,"time":"2023-11-01T00:00:00Z","domain":"a.com"}`, `,"next":2}`), // 19 digits, overflows
		frame(`{"offset":-1,"time":"2023-11-01T00:00:00Z","domain":"a.com"}`, `,"next":2}`),
		frame(`{"offset":1e3,"time":"2023-11-01T00:00:00Z","domain":"a.com"}`, `,"next":2}`),
		frame(`{"offset":1.0,"time":"2023-11-01T00:00:00Z","domain":"a.com"}`, `,"next":2}`),
		frame(`{"offset":,"time":"2023-11-01T00:00:00Z","domain":"a.com"}`, `,"next":2}`),
		frame(e0, `,"next":-2}`),
		frame(e0, `,"next":02}`),
		frame(``, `,"next":2}`), // "entries":[]
		frame(`{"offset":1,"offset":2,"time":"2023-11-01T00:00:00Z","domain":"a.com"}`, `,"next":2}`),
		frame(`{"offset":1,"time":"2023-11-01T00:00:00Z","domain":"a.com","raw":"r","raw":"s"}`, `,"next":2}`),
		frame(`{"offset":1,"time":"2023-11-01T00:00:00Z","domain":"a.com","extra":1}`, `,"next":2}`),
		frame(`{"offset":1,"time":"2023-11-01T00:00:00Z"}`, `,"next":2}`), // missing domain
		frame(e0, `}`), // missing next
		frame(e0, `,"next":2}}`),
		frame(e0, `,"next":2}garbage`),
		frame(e0, `,"next":2,"seq":1}`),
		frame(e0+`,`, `,"next":2}`),
		frame(`{"offset":1,"time":null,"domain":"a.com"}`, `,"next":2}`),
		frame(`{"offset":1,"time":"bad","domain":"a.com"}`, `,"next":2}`),
		frame(`{"offset":1,"time":"2023-11-01T00:00:00\u005a","domain":"a.com"}`, `,"next":2}`), // escape inside the time
		frame(`{"offset":1,"time":"2023-11-01T00:00:00Z\"","domain":"a.com"}`, `,"next":2}`),
		frame(`{"offset":1,"time":"10000-01-01T00:00:00Z","domain":"a.com"}`, `,"next":2}`),
		frame(`{"offset":1,"time":"2023-11-01T00:00:00Z","domain":"\ud83d"}`, `,"next":2}`),       // lone surrogate
		frame(`{"offset":1,"time":"2023-11-01T00:00:00Z","domain":"\ud83d\ude00"}`, `,"next":2}`), // surrogate pair
		frame(`{"offset":1,"time":"2023-11-01T00:00:00Z","domain":"\u00zz"}`, `,"next":2}`),
		frame(`{"offset":1,"time":"2023-11-01T00:00:00Z","domain":"\u12"}`, `,"next":2}`),
		frame(`{"offset":1,"time":"2023-11-01T00:00:00Z","domain":"\x"}`, `,"next":2}`),
		frame("{\"offset\":1,\"time\":\"2023-11-01T00:00:00Z\",\"domain\":\"a\x01b\"}", `,"next":2}`), // raw control byte
		frame("{\"offset\":1,\"time\":\"2023-11-01T00:00:00Z\",\"domain\":\"a\tb\",\"raw\":\"\\\"\"}", `,"next":2}`),
		frame("{\"offset\":1,\"time\":\"2023-11-01T00:00:00Z\",\"domain\":\"bad\xff\"}", `,"next":2}`), // invalid UTF-8
		frame("{\"offset\":1,\"time\":\"2023-11-01T00:00:00Z\",\"domain\":\"cut\xe2\\n\x82\"}", `,"next":2}`),
		frame("{\"offset\":1,\"time\":\"2023-11-01T00:00:00Z\",\"domain\":\"a\",\"raw\":\"\\\\\xe2\x82\"}", `,"next":2}`),
		[]byte(`{"frame":"data"}`),
		[]byte(`{"frame":"data","next":2,"entries":[` + e0 + `]}`),
		[]byte(`{"frame": "data","entries":[` + e0 + `],"next":2}`),
		[]byte(`{"frame":"DATA","entries":[` + e0 + `],"next":2}`),
		[]byte(`{"frame":"hb","entries":[` + e0 + `],"next":2}`),
		[]byte(` {"frame":"data","entries":[` + e0 + `],"next":2}`),
	}
	// Truncation at every byte of a two-entry frame.
	whole := frame(e0+`,{"offset":2,"time":"2023-11-01T00:00:01.5+05:30","domain":"b\"\u00e9.com"}`, `,"next":3}`)
	for n := 0; n < len(whole); n++ {
		lines = append(lines, whole[:n])
	}
	return lines
}

func TestDecodeFrameAgreesWithReference(t *testing.T) {
	for _, line := range canonicalFrames(t) {
		if _, _, ok := decodeDataFrame(line, nil); !ok {
			t.Errorf("fast decoder declined a canonical frame: %s", line)
		}
		checkDecodeAgrees(t, line)
	}
	for _, line := range nearMisses() {
		if _, _, ok := decodeDataFrame(line, nil); ok {
			t.Errorf("fast decoder accepted a non-canonical line: %q", line)
		}
		checkDecodeAgrees(t, line)
	}
	// Accepted escapes the server never writes but json would decode.
	for _, line := range []string{
		`{"frame":"data","entries":[{"offset":1,"time":"2023-11-01T00:00:00Z","domain":"\u0041\u00e9\u65E5\/\uFFFD","raw":""}],"next":0}`,
		`{"frame":"data","entries":[{"offset":0,"time":"2023-11-01T00:00:00+00:00","domain":"\ufffd\u0000"}],"next":18}`,
	} {
		if _, _, ok := decodeDataFrame([]byte(line), nil); !ok {
			t.Errorf("fast decoder declined %s", line)
		}
		checkDecodeAgrees(t, []byte(line))
	}
}

// FuzzDecodeEntryStrings holds the string-literal decoder to the
// reference on one entry's domain and raw value, spliced into an
// otherwise canonical DATA line twice: verbatim as the literals' bodies,
// which reaches every decline, and escaped as the server escapes them,
// which the fast decoder must accept.
func FuzzDecodeEntryStrings(f *testing.F) {
	f.Add([]byte("a.com"), []byte(`{"domain":"a.com","log":"argon2024"}`))
	f.Add([]byte(`\ud83d`), []byte(`\ud83d\ude00`)) // lone and paired surrogates
	f.Add([]byte(`\u00zz`), []byte(`\u12`))
	f.Add([]byte("a\x01b"), []byte("\t"))                   // raw control bytes
	f.Add([]byte("cut\xe2\\n\x82"), []byte("\\\\\xe2\x82")) // \xe2 beside an escape
	f.Add([]byte(`\u0041\u00e9\/`), []byte(`\"\\\b\f\n\r\t`))
	f.Add([]byte("bücher.de"), []byte("日本語 \U0001F600 \u2028"))
	f.Add([]byte(""), []byte(""))
	const head = `{"frame":"data","entries":[{"offset":1,"time":"2023-11-01T00:00:00Z","domain":`
	const tail = `}],"next":2}`
	f.Fuzz(func(t *testing.T, domain, raw []byte) {
		verbatim := slices.Concat([]byte(head+`"`), domain, []byte(`","raw":"`), raw, []byte(`"`+tail))
		checkDecodeAgrees(t, verbatim)

		escaped := appendJSONString([]byte(head), domain)
		escaped = append(escaped, `,"raw":`...)
		escaped = append(appendJSONString(escaped, raw), tail...)
		if _, _, ok := decodeDataFrame(escaped, nil); !ok {
			t.Fatalf("fast decoder declined the server's escaping: %q", escaped)
		}
		checkDecodeAgrees(t, escaped)
	})
}

// discardConn is a connection that swallows writes, so a test can drive
// a session's writer without a socket.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestReplayBatchAllocatesNothing pins the server half of the wire path:
// once a session's frame buffer is warm, reading a 256-entry batch from
// the encoded log, framing it and writing it costs no allocation.
func TestReplayBatchAllocatesNothing(t *testing.T) {
	topic := stream.NewBus().Topic("nrd-feed")
	for _, m := range benchBatch() {
		topic.Publish(m.Time, m.Key, m.Value)
	}
	srv := NewServer(topic)
	if head := srv.encodeBacklog(); head != 256 {
		t.Fatalf("backlog head = %d, want 256", head)
	}
	conn := discardConn{}
	sess := &session{srv: srv, conn: conn, w: &frameWriter{
		conn: conn, bw: bufio.NewWriter(conn), timeout: time.Second, bytes: &srv.bytesOut,
	}}
	sub := newSubscriber(srv.reg.tenant(DefaultTenant), &srv.log.entries, 0, srv.cfg)
	replay := func() {
		sub.cur.SetOffset(0)
		ents, _, ok, _ := sub.take(time.Second)
		if !ok || len(ents) != 256 || !sess.send(sub, ents) {
			t.Fatalf("replay read %d entries, ok %v", len(ents), ok)
		}
	}
	replay()
	if st := srv.Stats(); st.Delivered != 256 || st.Batches != 1 {
		t.Fatalf("warm-up replay: %+v", st)
	}
	if allocs := testing.AllocsPerRun(50, replay); allocs != 0 {
		t.Errorf("replaying a warm 256-entry batch allocates %v times, want 0", allocs)
	}
}

// TestQueueHandOffAllocatesNothing pins the hand-off between the pump
// and a session's writer: once the log's page is open, an append and the
// take that reads it allocate nothing, and a take that waits out its
// heartbeat interval allocates nothing after the first, which makes the
// cursor's timer and registers its wake channel.
func TestQueueHandOffAllocatesNothing(t *testing.T) {
	var log encodedLog
	sub := liveCursor(t, &log, 1024, ShedDropOldest)
	batch := make([]wireEntry, 16)
	round := func() {
		log.entries.Append(batch...)
		if ents, gap, ok, _ := sub.take(time.Second); !ok || gap != nil || len(ents) != len(batch) {
			t.Fatalf("take = %d entries, gap %v, ok %v", len(ents), gap, ok)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a warm offer and take allocate %v times, want 0", allocs)
	}
	heartbeat := func() {
		if ents, _, ok, _ := sub.take(time.Microsecond); !ok || len(ents) != 0 {
			t.Fatalf("idle take = %d entries, ok %v", len(ents), ok)
		}
	}
	heartbeat()
	if allocs := testing.AllocsPerRun(20, heartbeat); allocs != 0 {
		t.Errorf("an idle take allocates %v times after its first, want 0", allocs)
	}
}

// TestDecodeFrameAllocations pins decodeFrame on a canonical line and a
// warm buffer: one string per entry, holding its domain and its raw
// value, and the Frame, nothing that grows with the line.
func TestDecodeFrameAllocations(t *testing.T) {
	line := dataLine(t, benchBatch())
	buf := make([]Entry, 0, 256)
	allocs := testing.AllocsPerRun(50, func() {
		f, err := decodeFrame(line, buf[:0])
		if err != nil || len(f.Entries) != 256 || f.Next != 256 {
			t.Fatalf("decode: %v", err)
		}
	})
	if allocs != 256+1 {
		t.Errorf("decoding a 256-entry frame allocates %v times, want %d", allocs, 256+1)
	}
}

// repeatReader yields line and a newline over and over.
type repeatReader struct {
	line []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.line[r.off:])
	r.off = (r.off + n) % len(r.line)
	return n, nil
}

// TestReadFrameAllocations pins the client's read of a DATA frame: the
// connection owns the Frame and its Entries, so a warm read of a
// 256-entry line costs exactly one string per entry.
func TestReadFrameAllocations(t *testing.T) {
	line := append(dataLine(t, benchBatch()), '\n')
	sc := &subConn{r: bufio.NewScanner(&repeatReader{line: line})}
	sc.r.Buffer(make([]byte, 0, 64<<10), 8<<20)
	read := func() {
		f, err := sc.readFrame()
		if err != nil || f.Kind != FrameData || len(f.Entries) != 256 || f.Next != 256 {
			t.Fatalf("readFrame: %v", err)
		}
	}
	read()
	if allocs := testing.AllocsPerRun(50, read); allocs != 256 {
		t.Errorf("reading a warm 256-entry frame allocates %v times, want 256", allocs)
	}
}

// BenchmarkDecodeDataFrame decodes one 256-entry DATA line into a warm
// buffer, the client's cost per frame read.
func BenchmarkDecodeDataFrame(b *testing.B) {
	line := dataLine(b, benchBatch())
	buf := make([]Entry, 0, 256)
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, ok := decodeDataFrame(line, buf[:0]); !ok {
			b.Fatal("declined a canonical frame")
		}
	}
}
