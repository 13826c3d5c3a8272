package zonefile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"darkdns/internal/dnsmsg"
)

const sampleZone = `$ORIGIN com.
$TTL 900
@	IN SOA a.gtld-servers.net. nstld.verisign-grs.com. (
		1700000001 ; serial
		1800       ; refresh
		900        ; retry
		604800     ; expire
		86400 )    ; minimum
@	IN NS	a.gtld-servers.net.
example	IN NS	ns1.cloudflare.com.
example	IN NS	ns2.cloudflare.com.
	IN NS	ns3.cloudflare.com.     ; blank owner inherits "example.com"
www.example 300 IN A 192.0.2.10
v6.example IN AAAA 2001:db8::10
mail.example IN MX 10 mx1.example
txt.example IN TXT "v=spf1 -all" "second \"quoted\" string"
alias.example IN CNAME example
`

// all drains p into a slice.
func all(p *Parser) ([]dnsmsg.Record, error) {
	var out []dnsmsg.Record
	for {
		r, err := p.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, *r)
	}
}

func parseAll(t *testing.T, src string, opts ...Option) []dnsmsg.Record {
	t.Helper()
	recs, err := all(New(strings.NewReader(src), opts...))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return recs
}

func TestParseSampleZone(t *testing.T) {
	recs := parseAll(t, sampleZone)
	if len(recs) != 10 {
		t.Fatalf("got %d records, want 10", len(recs))
	}
	soa := recs[0]
	if soa.Type != dnsmsg.TypeSOA || soa.Name != "com" {
		t.Fatalf("first record: %+v", soa)
	}
	if soa.SOA.Serial != 1700000001 || soa.SOA.Minimum != 86400 {
		t.Errorf("SOA fields: %+v", soa.SOA)
	}
	if soa.TTL != 900 {
		t.Errorf("SOA TTL = %d, want 900 from $TTL", soa.TTL)
	}
	// Relative owner qualification.
	if recs[2].Name != "example.com" || recs[2].NS != "ns1.cloudflare.com" {
		t.Errorf("record 2: %+v", recs[2])
	}
	// Blank-owner inheritance.
	if recs[4].Name != "example.com" || recs[4].NS != "ns3.cloudflare.com" {
		t.Errorf("blank owner: %+v", recs[4])
	}
	// Explicit TTL overrides $TTL.
	if recs[5].TTL != 300 || recs[5].A.String() != "192.0.2.10" {
		t.Errorf("A record: %+v", recs[5])
	}
	if recs[6].AAAA.String() != "2001:db8::10" {
		t.Errorf("AAAA: %+v", recs[6])
	}
	if recs[7].MX.Preference != 10 || recs[7].MX.Exchange != "mx1.example.com" {
		t.Errorf("MX: %+v", recs[7])
	}
	if len(recs[8].TXT) != 2 || recs[8].TXT[0] != "v=spf1 -all" || recs[8].TXT[1] != `second "quoted" string` {
		t.Errorf("TXT: %+v", recs[8].TXT)
	}
	if recs[9].CNAME != "example.com" {
		t.Errorf("CNAME: %+v", recs[9])
	}
}

func TestOriginDirectiveSwitch(t *testing.T) {
	src := `$TTL 60
$ORIGIN com.
a IN A 192.0.2.1
$ORIGIN net.
a IN A 192.0.2.2
b. IN A 192.0.2.3
`
	recs := parseAll(t, src)
	if recs[0].Name != "a.com" || recs[1].Name != "a.net" || recs[2].Name != "b" {
		t.Errorf("origins: %q %q %q", recs[0].Name, recs[1].Name, recs[2].Name)
	}
}

func TestAtOwner(t *testing.T) {
	recs := parseAll(t, "$ORIGIN shop.\n@ 60 IN NS ns1.x.\n")
	if recs[0].Name != "shop" {
		t.Errorf("@ owner = %q", recs[0].Name)
	}
}

func TestTTLUnits(t *testing.T) {
	cases := map[string]uint32{
		"3600": 3600, "1h": 3600, "1H": 3600, "90m": 5400, "1h30m": 5400,
		"2d": 172800, "1w": 604800, "1w1d1h1m1s": 694861, "0": 0,
	}
	for in, want := range cases {
		got, err := parseTTL(in)
		if err != nil || got != want {
			t.Errorf("parseTTL(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "h", "5x", "-3"} {
		if _, err := parseTTL(bad); err == nil {
			t.Errorf("parseTTL(%q) should fail", bad)
		}
	}
}

func TestClassAndTTLEitherOrder(t *testing.T) {
	recs := parseAll(t, "x.com. IN 120 A 192.0.2.1\ny.com. 120 IN A 192.0.2.2\n")
	if recs[0].TTL != 120 || recs[1].TTL != 120 {
		t.Errorf("TTLs: %d %d", recs[0].TTL, recs[1].TTL)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"x.com. IN A\n",                       // missing rdata
		"x.com. IN A 192.0.2.1 extra\n",       // extra rdata
		"x.com. IN A not-an-ip\n",             // bad address
		"x.com. IN AAAA 192.0.2.1\n",          // v4 in AAAA
		"x.com. IN MX ten mx.x.com.\n",        // bad preference
		"x.com. IN SOA a. b. 1 2 3\n",         // short SOA
		"x.com. A 192.0.2.1\n",                // no TTL anywhere
		"x.com. IN CH TXT \"chaos\"\n",        // unsupported class
		"$ORIGIN\n",                           // directive arity
		"$BOGUS x\n",                          // unknown directive
		"x.com. 60 IN WKS 1 2 3\n",            // unsupported type
		"x.com. 60 IN TXT \"unterminated\n",   // quote error
		"x.com. 60 IN SOA a. b. (1 2 3 4 5\n", // unclosed paren
	}
	for _, src := range cases {
		if _, err := all(New(strings.NewReader(src))); err == nil {
			t.Errorf("parse(%q) succeeded, want error", src)
		}
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	src := "good.com. 60 IN A 192.0.2.1\nbad.com. 60 IN A nope\n"
	_, err := all(New(strings.NewReader(src)))
	var se *errSyntax
	if !errors.As(err, &se) {
		t.Fatalf("want *errSyntax, got %T %v", err, err)
	}
	if se.line != 2 {
		t.Errorf("error line = %d, want 2", se.line)
	}
}

func TestCommentsEverywhere(t *testing.T) {
	src := "; leading comment\nx.com. 60 IN A 192.0.2.1 ; trailing\n; inter\ny.com. 60 IN A 192.0.2.2\n"
	recs := parseAll(t, src)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
}

func TestNoOwnerFirstLineFails(t *testing.T) {
	if _, err := all(New(strings.NewReader("  60 IN A 192.0.2.1\n"))); err == nil {
		t.Error("whitespace-led first record should fail")
	}
}

func TestWriterRoundTrip(t *testing.T) {
	recs := parseAll(t, sampleZone)
	var buf bytes.Buffer
	w := NewWriter(&buf, "com")
	if err := w.WriteComment("round trip"); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.WriteRecord(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	again, err := all(New(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatalf("re-parse: %v\nzone:\n%s", err, buf.String())
	}
	if len(again) != len(recs) {
		t.Fatalf("round trip %d → %d records", len(recs), len(again))
	}
	for i := range recs {
		if recs[i].String() != again[i].String() {
			t.Errorf("record %d:\n  before %s\n  after  %s", i, recs[i].String(), again[i].String())
		}
	}
}

func TestWriterRelativeNames(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "com")
	rec := dnsmsg.Record{Name: "example.com", Type: dnsmsg.TypeNS, TTL: 60, NS: "ns.other.net"}
	if err := w.WriteRecord(&rec); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	out := buf.String()
	if !strings.Contains(out, "example\t") {
		t.Errorf("owner not relativized:\n%s", out)
	}
	if !strings.Contains(out, "ns.other.net.") {
		t.Errorf("external target not absolute:\n%s", out)
	}
}

func TestStreamingConstantMemoryShape(t *testing.T) {
	// Generate a large zone lazily and ensure the parser consumes it
	// record by record without materializing (smoke test: count only).
	const n = 50_000
	pr, pw := io.Pipe()
	go func() {
		bw := NewWriter(pw, "shop")
		for i := 0; i < n; i++ {
			rec := dnsmsg.Record{Name: fmt.Sprintf("d%07d.shop", i), Type: dnsmsg.TypeNS, TTL: 60, NS: "ns1.dns-parking.com"}
			if err := bw.WriteRecord(&rec); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		bw.Flush()
		pw.Close()
	}()
	p := New(pr)
	count := 0
	for {
		_, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != n {
		t.Fatalf("streamed %d records, want %d", count, n)
	}
}

func TestMultiLineParensWithComments(t *testing.T) {
	src := `x.com. 60 IN SOA ns. host. ( ; open
1 ; serial comment
2 3 ; two on a line
4
5 ) ; close
`
	recs := parseAll(t, src)
	if recs[0].SOA.Serial != 1 || recs[0].SOA.Minimum != 5 {
		t.Errorf("SOA: %+v", recs[0].SOA)
	}
}

func TestPropertyParserNeverPanics(t *testing.T) {
	// The parser must reject arbitrary input with errors, never panics.
	f := func(src []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		p := New(bytes.NewReader(src))
		for i := 0; i < 1000; i++ {
			if _, err := p.Next(); err != nil {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyWriterOutputAlwaysReparses(t *testing.T) {
	// Any record the writer accepts must re-parse to the same string.
	f := func(owner8, ns8 uint32, ttl uint32) bool {
		owner := fmt.Sprintf("d%d.com", owner8%1_000_000)
		ns := fmt.Sprintf("ns%d.example.net", ns8%1000)
		rec := dnsmsg.Record{Name: owner, Type: dnsmsg.TypeNS, Class: dnsmsg.ClassIN, TTL: ttl, NS: ns}
		var buf bytes.Buffer
		w := NewWriter(&buf, "com")
		if err := w.WriteRecord(&rec); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := all(New(bytes.NewReader(buf.Bytes())))
		if err != nil || len(got) != 1 {
			return false
		}
		return got[0].String() == rec.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkParseZone(b *testing.B) {
	var sb strings.Builder
	w := NewWriter(&sb, "com")
	for i := 0; i < 10_000; i++ {
		rec := dnsmsg.Record{Name: fmt.Sprintf("d%05d.com", i), Type: dnsmsg.TypeNS, TTL: 60, NS: fmt.Sprintf("ns%d.cloudflare.com", i%4)}
		w.WriteRecord(&rec)
	}
	w.Flush()
	src := sb.String()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New(strings.NewReader(src))
		for {
			_, err := p.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
