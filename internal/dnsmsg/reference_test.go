package dnsmsg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"darkdns/internal/dnsname"
)

// The codec as it stood before AppendPack and the sized, name-sharing
// Unpack: Pack into a fresh 512-byte buffer through a map-only compressor,
// Unpack growing every section by append through a strings.Builder name
// reader. Kept verbatim (the name codec is copied here because a test
// file cannot import dnsname's) as the oracle for the differential tests
// below and for FuzzUnpack: same bytes out, same message or error in.

type refCompressor struct {
	offsets map[string]int
}

func (c *refCompressor) Append(msg []byte, name string) ([]byte, error) {
	if c.offsets == nil {
		c.offsets = make(map[string]int)
	}
	name = dnsname.Canonical(name)
	for {
		if name == "" {
			return append(msg, 0), nil
		}
		if off, ok := c.offsets[name]; ok && off < 0x4000 {
			return append(msg, 0xC0|byte(off>>8), byte(off)), nil
		}
		if len(msg) < 0x4000 {
			c.offsets[name] = len(msg)
		}
		var label string
		if i := strings.IndexByte(name, '.'); i >= 0 {
			label, name = name[:i], name[i+1:]
		} else {
			label, name = name, ""
		}
		if label == "" {
			return msg, dnsname.ErrEmpty
		}
		if len(label) > dnsname.MaxLabelLen {
			return msg, dnsname.ErrLabelTooLong
		}
		msg = append(msg, byte(len(label)))
		msg = append(msg, label...)
	}
}

func refReadWire(msg []byte, off int) (name string, next int, err error) {
	var sb strings.Builder
	jumped := false
	hops := 0
	next = off
	for {
		if off >= len(msg) {
			return "", 0, dnsname.ErrTruncated
		}
		b := msg[off]
		switch {
		case b == 0:
			if !jumped {
				next = off + 1
			}
			return dnsname.Canonical(sb.String()), next, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, dnsname.ErrTruncated
			}
			ptr := int(b&0x3F)<<8 | int(msg[off+1])
			if !jumped {
				next = off + 2
			}
			if ptr >= off {
				return "", 0, dnsname.ErrBadCompress
			}
			off = ptr
			jumped = true
			if hops++; hops > dnsname.MaxLabels {
				return "", 0, dnsname.ErrPointerLoop
			}
		case b&0xC0 != 0:
			return "", 0, dnsname.ErrBadCompress
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return "", 0, dnsname.ErrTruncated
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(msg[off+1 : off+1+l])
			if sb.Len() > dnsname.MaxNameLen {
				return "", 0, dnsname.ErrTooLong
			}
			off += 1 + l
		}
	}
}

func refPack(m *Message) ([]byte, error) {
	buf := make([]byte, 12, 512)
	binary.BigEndian.PutUint16(buf[0:], m.Header.ID)
	var flags uint16
	if m.Header.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Header.OpCode&0xF) << 11
	if m.Header.Authoritative {
		flags |= 1 << 10
	}
	if m.Header.Truncated {
		flags |= 1 << 9
	}
	if m.Header.RecursionDesired {
		flags |= 1 << 8
	}
	if m.Header.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.Header.RCode & 0xF)
	binary.BigEndian.PutUint16(buf[2:], flags)
	binary.BigEndian.PutUint16(buf[4:], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(buf[6:], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(buf[8:], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(buf[10:], uint16(len(m.Additional)))

	var c refCompressor
	var err error
	for _, q := range m.Questions {
		if buf, err = c.Append(buf, q.Name); err != nil {
			return nil, err
		}
		buf = be16(buf, uint16(q.Type))
		buf = be16(buf, uint16(q.Class))
	}
	for _, sec := range [][]Record{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			if buf, err = refAppendRecord(buf, &c, &sec[i]); err != nil {
				return nil, err
			}
		}
	}
	if len(buf) > 0xFFFF {
		return nil, ErrTooBig
	}
	return buf, nil
}

func refAppendRecord(buf []byte, c *refCompressor, r *Record) ([]byte, error) {
	var err error
	if buf, err = c.Append(buf, r.Name); err != nil {
		return nil, err
	}
	buf = be16(buf, uint16(r.Type))
	buf = be16(buf, uint16(r.Class))
	buf = be32(buf, r.TTL)
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	start := len(buf)
	switch r.Type {
	case TypeA:
		if !r.A.Is4() {
			return nil, fmt.Errorf("dnsmsg: A record %q has non-IPv4 addr %v", r.Name, r.A)
		}
		a4 := r.A.As4()
		buf = append(buf, a4[:]...)
	case TypeAAAA:
		if !r.AAAA.Is6() || r.AAAA.Is4() {
			return nil, fmt.Errorf("dnsmsg: AAAA record %q has non-IPv6 addr %v", r.Name, r.AAAA)
		}
		a16 := r.AAAA.As16()
		buf = append(buf, a16[:]...)
	case TypeNS:
		if buf, err = c.Append(buf, r.NS); err != nil {
			return nil, err
		}
	case TypeCNAME:
		if buf, err = c.Append(buf, r.CNAME); err != nil {
			return nil, err
		}
	case TypeSOA:
		if buf, err = c.Append(buf, r.SOA.MName); err != nil {
			return nil, err
		}
		if buf, err = c.Append(buf, r.SOA.RName); err != nil {
			return nil, err
		}
		buf = be32(buf, r.SOA.Serial)
		buf = be32(buf, r.SOA.Refresh)
		buf = be32(buf, r.SOA.Retry)
		buf = be32(buf, r.SOA.Expire)
		buf = be32(buf, r.SOA.Minimum)
	case TypeMX:
		buf = be16(buf, r.MX.Preference)
		if buf, err = c.Append(buf, r.MX.Exchange); err != nil {
			return nil, err
		}
	case TypeTXT:
		for _, s := range r.TXT {
			if len(s) > 255 {
				return nil, fmt.Errorf("dnsmsg: TXT string exceeds 255 bytes")
			}
			buf = append(buf, byte(len(s)))
			buf = append(buf, s...)
		}
	default:
		buf = append(buf, r.Raw...)
	}
	rdlen := len(buf) - start
	if rdlen > 0xFFFF {
		return nil, ErrTooBig
	}
	binary.BigEndian.PutUint16(buf[lenAt:], uint16(rdlen))
	return buf, nil
}

func refUnpack(b []byte) (*Message, error) {
	if len(b) < 12 {
		return nil, ErrTruncatedMsg
	}
	m := &Message{}
	m.Header.ID = binary.BigEndian.Uint16(b[0:])
	flags := binary.BigEndian.Uint16(b[2:])
	m.Header.Response = flags&(1<<15) != 0
	m.Header.OpCode = uint8(flags >> 11 & 0xF)
	m.Header.Authoritative = flags&(1<<10) != 0
	m.Header.Truncated = flags&(1<<9) != 0
	m.Header.RecursionDesired = flags&(1<<8) != 0
	m.Header.RecursionAvailable = flags&(1<<7) != 0
	m.Header.RCode = RCode(flags & 0xF)
	qd := int(binary.BigEndian.Uint16(b[4:]))
	an := int(binary.BigEndian.Uint16(b[6:]))
	ns := int(binary.BigEndian.Uint16(b[8:]))
	ar := int(binary.BigEndian.Uint16(b[10:]))

	off := 12
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		if q.Name, off, err = refReadWire(b, off); err != nil {
			return nil, err
		}
		if off+4 > len(b) {
			return nil, ErrTruncatedMsg
		}
		q.Type = Type(binary.BigEndian.Uint16(b[off:]))
		q.Class = Class(binary.BigEndian.Uint16(b[off+2:]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	for _, sec := range []*[]Record{&m.Answers, &m.Authority, &m.Additional} {
		n := an
		switch sec {
		case &m.Authority:
			n = ns
		case &m.Additional:
			n = ar
		}
		for i := 0; i < n; i++ {
			var r Record
			if r, off, err = refReadRecord(b, off); err != nil {
				return nil, err
			}
			*sec = append(*sec, r)
		}
	}
	return m, nil
}

func refReadRecord(b []byte, off int) (Record, int, error) {
	var r Record
	var err error
	if r.Name, off, err = refReadWire(b, off); err != nil {
		return r, 0, err
	}
	if off+10 > len(b) {
		return r, 0, ErrTruncatedMsg
	}
	r.Type = Type(binary.BigEndian.Uint16(b[off:]))
	r.Class = Class(binary.BigEndian.Uint16(b[off+2:]))
	r.TTL = binary.BigEndian.Uint32(b[off+4:])
	rdlen := int(binary.BigEndian.Uint16(b[off+8:]))
	off += 10
	if off+rdlen > len(b) {
		return r, 0, ErrTruncatedMsg
	}
	end := off + rdlen
	switch r.Type {
	case TypeA:
		if rdlen != 4 {
			return r, 0, ErrBadRDLen
		}
		r.A = netip.AddrFrom4([4]byte(b[off:end]))
	case TypeAAAA:
		if rdlen != 16 {
			return r, 0, ErrBadRDLen
		}
		r.AAAA = netip.AddrFrom16([16]byte(b[off:end]))
	case TypeNS:
		if r.NS, _, err = refReadWire(b, off); err != nil {
			return r, 0, err
		}
	case TypeCNAME:
		if r.CNAME, _, err = refReadWire(b, off); err != nil {
			return r, 0, err
		}
	case TypeSOA:
		p := off
		if r.SOA.MName, p, err = refReadWire(b, p); err != nil {
			return r, 0, err
		}
		if r.SOA.RName, p, err = refReadWire(b, p); err != nil {
			return r, 0, err
		}
		if p+20 > len(b) || p+20 > end {
			return r, 0, ErrBadRDLen
		}
		r.SOA.Serial = binary.BigEndian.Uint32(b[p:])
		r.SOA.Refresh = binary.BigEndian.Uint32(b[p+4:])
		r.SOA.Retry = binary.BigEndian.Uint32(b[p+8:])
		r.SOA.Expire = binary.BigEndian.Uint32(b[p+12:])
		r.SOA.Minimum = binary.BigEndian.Uint32(b[p+16:])
	case TypeMX:
		if rdlen < 3 {
			return r, 0, ErrBadRDLen
		}
		r.MX.Preference = binary.BigEndian.Uint16(b[off:])
		if r.MX.Exchange, _, err = refReadWire(b, off+2); err != nil {
			return r, 0, err
		}
	case TypeTXT:
		p := off
		for p < end {
			l := int(b[p])
			p++
			if p+l > end {
				return r, 0, ErrBadRDLen
			}
			r.TXT = append(r.TXT, string(b[p:p+l]))
			p += l
		}
	default:
		r.Raw = append([]byte(nil), b[off:end]...)
	}
	return r, end, nil
}

// sameUnpack fails unless Unpack and the reference decode b to deeply
// equal messages, or fail with the same error.
func sameUnpack(t *testing.T, b []byte) {
	t.Helper()
	m, err := Unpack(b)
	want, wantErr := refUnpack(b)
	if (err == nil) != (wantErr == nil) || !errors.Is(err, wantErr) {
		t.Fatalf("Unpack(%x): error %v, reference %v", b, err, wantErr)
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("Unpack(%x):\n got %+v\nwant %+v", b, m, want)
	}
}

// nsAnswer is the shape probe_wire and the fleet's step 3 live on: the
// TLD server's answer to an NS query, n targets under one owner.
func nsAnswer(n int) *Message {
	r := NewQuery(0xBEEF, "probe-me.shop", TypeNS).Reply()
	r.Header.Authoritative = true
	for i := 0; i < n; i++ {
		r.Answers = append(r.Answers, Record{
			Name: "probe-me.shop", Type: TypeNS, Class: ClassIN, TTL: 3600,
			NS: fmt.Sprintf("ns%d.dns-host-%d.example.net", i+1, i%3),
		})
	}
	return r
}

// codecTable is the message shapes the repository puts on a wire.
func codecTable() map[string]*Message {
	nx := NewQuery(7, "gone.shop", TypeNS).Reply()
	nx.Header.RCode = RCodeNXDomain
	nx.Authority = []Record{{Name: "shop", Type: TypeSOA, Class: ClassIN, TTL: 900, SOA: SOAData{
		MName: "a.nic.shop", RName: "hostmaster.nic.shop", Serial: 2023110100, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 60,
	}}}
	txt := NewQuery(8, "_dmarc.example.com", TypeTXT).Reply()
	txt.Answers = []Record{
		{Name: "_dmarc.example.com", Type: TypeTXT, Class: ClassIN, TTL: 300, TXT: []string{"v=DMARC1; p=none", ""}},
		{Name: "example.com", Type: TypeMX, Class: ClassIN, TTL: 300, MX: MXData{Preference: 10, Exchange: "Mail.Example.COM"}},
		{Name: "www.example.com", Type: TypeCNAME, Class: ClassIN, TTL: 300, CNAME: "example.com."},
		{Name: "example.com", Type: Type(99), Class: ClassIN, TTL: 1, Raw: []byte{1, 2, 3}},
	}
	edns := NewQuery(9, "big.com", TypeA)
	edns.SetEDNS0(DefaultEDNSSize)
	// One AXFR chunk: 300 delegations' NS records between two SOAs — some
	// 600 distinct suffixes, far past the compressor's inline table.
	axfr := NewQuery(10, "shop", Type(252)).Reply()
	axfr.Answers = append(axfr.Answers, nx.Authority[0])
	for i := 0; i < 300; i++ {
		axfr.Answers = append(axfr.Answers, Record{
			Name: fmt.Sprintf("domain-%03d.shop", i), Type: TypeNS, Class: ClassIN, TTL: 3600,
			NS: fmt.Sprintf("ns%d.host-%02d.example.net", i%2+1, i%40),
		})
	}
	axfr.Answers = append(axfr.Answers, nx.Authority[0])
	return map[string]*Message{
		"query":       NewQuery(1, "Probe-Me.shop", TypeNS),
		"query-edns":  edns,
		"ns-2":        nsAnswer(2),
		"ns-4":        nsAnswer(4),
		"ns-13":       nsAnswer(13),
		"nxdomain":    nx,
		"txt-mx-misc": txt,
		"sample":      sampleMessage(),
		"axfr-300":    axfr,
	}
}

// TestPackMatchesReference: every shape packs to the bytes the old codec
// produced, into a fresh buffer, behind a prefix that fits the buffer's
// capacity and behind one that does not; and what was packed unpacks to
// what the old decoder made of it.
func TestPackMatchesReference(t *testing.T) {
	for name, m := range codecTable() {
		want, err := refPack(m)
		if err != nil {
			t.Fatalf("%s: reference pack: %v", name, err)
		}
		got, err := m.Pack()
		if err != nil || string(got) != string(want) {
			t.Errorf("%s: Pack differs from the reference (%v)\n got %x\nwant %x", name, err, got, want)
		}
		for _, spare := range []int{0, len(want) / 2, len(want) + 64} {
			prefix := []byte{0xAA, 0xBB}
			buf := append(make([]byte, 0, len(prefix)+spare), prefix...)
			out, err := m.AppendPack(buf)
			if err != nil || string(out) != string(prefix)+string(want) {
				t.Errorf("%s: AppendPack behind a prefix with %d spare bytes differs (%v)", name, spare, err)
			}
		}
		sameUnpack(t, want)
	}
}

// TestAppendPackErrorLeavesBufferUsable: a message that cannot be packed
// returns nil, and the caller's buffer still takes the next message.
func TestAppendPackErrorLeavesBufferUsable(t *testing.T) {
	buf := make([]byte, 0, 512)
	bad := NewQuery(1, "a..b", TypeA)
	if out, err := bad.AppendPack(buf); err == nil || out != nil {
		t.Fatalf("AppendPack of an empty label = %x, %v", out, err)
	}
	good := NewQuery(2, "a.b", TypeA)
	out, err := good.AppendPack(buf)
	want, _ := refPack(good)
	if err != nil || string(out) != string(want) {
		t.Fatalf("AppendPack after an error: %x, %v", out, err)
	}
}

// TestCodecAllocations pins what a message costs. Packing into a warm
// buffer allocates nothing. Unpacking a 4-NS answer allocates the message,
// its question and answer sections, the question's name and the four
// targets — the owner names are the question's string.
func TestCodecAllocations(t *testing.T) {
	m := nsAnswer(4)
	buf, err := m.AppendPack(make([]byte, 0, 512))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { buf, _ = m.AppendPack(buf[:0]) }); n != 0 {
		t.Errorf("AppendPack into a warm buffer: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { Unpack(buf) }); n > 8 {
		t.Errorf("Unpack of a 4-NS answer: %v allocations, want at most 8", n)
	}
	got, err := Unpack(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Answers {
		if got.Answers[i].Name != "probe-me.shop" {
			t.Errorf("answer %d owner = %q", i, got.Answers[i].Name)
		}
	}
}

// TestUnpackHostileCountsSizeNothing: a header may claim 65 535 entries a
// section; what Unpack sets aside is bounded by the bytes that follow.
func TestUnpackHostileCountsSizeNothing(t *testing.T) {
	hdr := make([]byte, 12)
	for i := 4; i < 12; i++ {
		hdr[i] = 0xFF
	}
	if _, err := Unpack(hdr); !errors.Is(err, dnsname.ErrTruncated) {
		t.Fatalf("12-byte message claiming 4×65535 entries: %v", err)
	}
	// The Message itself is the only thing there was room to allocate.
	if n := testing.AllocsPerRun(100, func() { Unpack(hdr) }); n > 1 {
		t.Errorf("hostile header: %v allocations, want at most 1", n)
	}
	// One real question, then a claim of 65 535 answers in 11 bytes.
	q, _ := NewQuery(1, "a.b", TypeA).Pack()
	q[6], q[7] = 0xFF, 0xFF
	q = append(q, make([]byte, 11)...)
	sameUnpack(t, q)
	if n := testing.AllocsPerRun(100, func() { Unpack(q) }); n > 4 {
		t.Errorf("65535 claimed answers in 11 bytes: %v allocations, want at most 4 (message, question section, name, a one-record section)", n)
	}
}
