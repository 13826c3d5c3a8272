// Package dnsmsg implements the DNS wire protocol (RFC 1035) subset needed
// by the DarkDNS measurement infrastructure: message header, questions, and
// resource records of type A, AAAA, NS, SOA, CNAME, TXT and MX, plus the
// EDNS0 OPT pseudo-record (RFC 6891). Encoding applies name compression;
// decoding accepts compressed names anywhere a name may appear.
package dnsmsg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"

	"darkdns/internal/dnsname"
)

// Type is a DNS RR type code.
type Type uint16

// Record types used by the reproduction.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
	TypeANY   Type = 255
)

// String returns the conventional mnemonic.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypeMX:
		return "MX"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeOPT:
		return "OPT"
	case TypeANY:
		return "ANY"
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// ParseType maps a mnemonic to its code.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "A":
		return TypeA, nil
	case "NS":
		return TypeNS, nil
	case "CNAME":
		return TypeCNAME, nil
	case "SOA":
		return TypeSOA, nil
	case "MX":
		return TypeMX, nil
	case "TXT":
		return TypeTXT, nil
	case "AAAA":
		return TypeAAAA, nil
	case "OPT":
		return TypeOPT, nil
	case "ANY":
		return TypeANY, nil
	}
	return 0, fmt.Errorf("dnsmsg: unknown type %q", s)
}

// Class is a DNS class; only IN is used.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a response code.
type RCode uint8

// Response codes (RFC 1035 §4.1.1).
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String returns the mnemonic.
func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	}
	return fmt.Sprintf("RCODE%d", uint8(r))
}

// Errors returned by the codec.
var (
	ErrTruncatedMsg = errors.New("dnsmsg: truncated message")
	ErrBadRDLen     = errors.New("dnsmsg: rdata length mismatch")
	ErrTooBig       = errors.New("dnsmsg: message exceeds 64 KiB")
)

// Header is the fixed 12-byte message header.
type Header struct {
	ID                 uint16
	Response           bool
	OpCode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
}

// Question is a query tuple.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// SOAData is the RDATA of an SOA record.
type SOAData struct {
	MName   string // primary nameserver
	RName   string // responsible mailbox
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// MXData is the RDATA of an MX record.
type MXData struct {
	Preference uint16
	Exchange   string
}

// Record is a resource record with decoded RDATA. Exactly one of the typed
// fields is meaningful, selected by Type; Raw preserves unknown RDATA.
type Record struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32

	A     netip.Addr // TypeA
	AAAA  netip.Addr // TypeAAAA
	NS    string     // TypeNS: nameserver target
	CNAME string     // TypeCNAME
	SOA   SOAData    // TypeSOA
	MX    MXData     // TypeMX
	TXT   []string   // TypeTXT: character strings
	Raw   []byte     // any other type
}

// Target returns the RDATA domain name of name-valued records ("" otherwise).
func (r *Record) Target() string {
	switch r.Type {
	case TypeNS:
		return r.NS
	case TypeCNAME:
		return r.CNAME
	case TypeSOA:
		return r.SOA.MName
	case TypeMX:
		return r.MX.Exchange
	}
	return ""
}

// String renders the record in zone-file presentation form.
func (r *Record) String() string {
	rd := ""
	switch r.Type {
	case TypeA:
		rd = r.A.String()
	case TypeAAAA:
		rd = r.AAAA.String()
	case TypeNS:
		rd = r.NS + "."
	case TypeCNAME:
		rd = r.CNAME + "."
	case TypeSOA:
		rd = fmt.Sprintf("%s. %s. %d %d %d %d %d", r.SOA.MName, r.SOA.RName,
			r.SOA.Serial, r.SOA.Refresh, r.SOA.Retry, r.SOA.Expire, r.SOA.Minimum)
	case TypeMX:
		rd = fmt.Sprintf("%d %s.", r.MX.Preference, r.MX.Exchange)
	case TypeTXT:
		parts := make([]string, len(r.TXT))
		for i, s := range r.TXT {
			parts[i] = fmt.Sprintf("%q", s)
		}
		rd = strings.Join(parts, " ")
	default:
		rd = fmt.Sprintf("\\# %d %x", len(r.Raw), r.Raw)
	}
	return fmt.Sprintf("%s.\t%d\tIN\t%s\t%s", r.Name, r.TTL, r.Type, rd)
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []Record
	Authority  []Record
	Additional []Record
}

// NewQuery builds a standard recursion-desired query for (name, t).
func NewQuery(id uint16, name string, t Type) *Message {
	return &Message{
		Header:    Header{ID: id, RecursionDesired: true},
		Questions: []Question{{Name: dnsname.Canonical(name), Type: t, Class: ClassIN}},
	}
}

// Reply builds a response skeleton mirroring the query's ID and question.
func (m *Message) Reply() *Message {
	r := &Message{Header: Header{
		ID:               m.Header.ID,
		Response:         true,
		OpCode:           m.Header.OpCode,
		RecursionDesired: m.Header.RecursionDesired,
	}}
	r.Questions = append(r.Questions, m.Questions...)
	return r
}

// Pack encodes the message with name compression.
func (m *Message) Pack() ([]byte, error) {
	return m.AppendPack(make([]byte, 0, 512))
}

// AppendPack appends the encoded message to buf and returns the extended
// slice, or nil and the error. A caller that hands back the same buffer,
// resliced to the length it wants kept, packs without allocating.
func (m *Message) AppendPack(buf []byte) ([]byte, error) {
	// The message is built in buf's spare capacity as a slice of its own,
	// so compression offsets count from the start of the message whatever
	// buf already holds.
	msg := append(buf[len(buf):], make([]byte, 12)...)
	binary.BigEndian.PutUint16(msg[0:], m.Header.ID)
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
	binary.BigEndian.PutUint16(msg[2:], flags)
	binary.BigEndian.PutUint16(msg[4:], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(msg[6:], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(msg[8:], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(msg[10:], uint16(len(m.Additional)))

	var c dnsname.Compressor
	var err error
	for _, q := range m.Questions {
		if msg, err = c.Append(msg, q.Name); err != nil {
			return nil, err
		}
		msg = be16(msg, uint16(q.Type))
		msg = be16(msg, uint16(q.Class))
	}
	for _, sec := range [3][]Record{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			if msg, err = appendRecord(msg, &c, &sec[i]); err != nil {
				return nil, err
			}
		}
	}
	if len(msg) > 0xFFFF {
		return nil, ErrTooBig
	}
	// A message that fitted the spare capacity is already in place and this
	// copies it onto itself; one that outgrew it moves into a grown buf.
	return append(buf, msg...), nil
}

func be16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func be32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendRecord(buf []byte, c *dnsname.Compressor, r *Record) ([]byte, error) {
	var err error
	if buf, err = c.Append(buf, r.Name); err != nil {
		return nil, err
	}
	buf = be16(buf, uint16(r.Type))
	buf = be16(buf, uint16(r.Class))
	buf = be32(buf, r.TTL)
	// Reserve rdlength; fill after writing rdata.
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

// Unpack decodes a complete message. The message and room for one
// question, which is what every query and answer carries, share one
// allocation.
func Unpack(b []byte) (*Message, error) {
	a := new(struct {
		m Message
		q [1]Question
	})
	a.m.Questions = a.q[:0]
	if err := UnpackInto(b, &a.m); err != nil {
		return nil, err
	}
	if len(a.m.Questions) == 0 {
		a.m.Questions = nil
	}
	return &a.m, nil
}

// UnpackInto decodes a complete message into m, overwriting what m held
// and reusing its sections' arrays where they have the room, so a caller
// that decodes message after message into one Message allocates only the
// names and record data each one carries. After an error m's contents
// are unspecified.
func UnpackInto(b []byte, m *Message) error {
	if len(b) < 12 {
		return ErrTruncatedMsg
	}
	flags := binary.BigEndian.Uint16(b[2:])
	m.Header = Header{
		ID:                 binary.BigEndian.Uint16(b[0:]),
		Response:           flags&(1<<15) != 0,
		OpCode:             uint8(flags >> 11 & 0xF),
		Authoritative:      flags&(1<<10) != 0,
		Truncated:          flags&(1<<9) != 0,
		RecursionDesired:   flags&(1<<8) != 0,
		RecursionAvailable: flags&(1<<7) != 0,
		RCode:              RCode(flags & 0xF),
	}
	qd := int(binary.BigEndian.Uint16(b[4:]))
	an := int(binary.BigEndian.Uint16(b[6:]))
	ns := int(binary.BigEndian.Uint16(b[8:]))
	ar := int(binary.BigEndian.Uint16(b[10:]))

	off := 12
	var err error
	m.Questions = section(m.Questions, sectionCap(qd, len(b)-off, minQuestionLen))
	for i := 0; i < qd; i++ {
		var q Question
		if q.Name, off, err = dnsname.ReadWire(b, off); err != nil {
			return err
		}
		if off+4 > len(b) {
			return ErrTruncatedMsg
		}
		q.Type = Type(binary.BigEndian.Uint16(b[off:]))
		q.Class = Class(binary.BigEndian.Uint16(b[off+2:]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	for s, sec := range [3]*[]Record{&m.Answers, &m.Authority, &m.Additional} {
		count := [3]int{an, ns, ar}[s]
		*sec = section(*sec, sectionCap(count, len(b)-off, minRecordLen))
		for i := 0; i < count; i++ {
			var r Record
			if r, off, err = readRecord(b, off, m.Questions); err != nil {
				return err
			}
			*sec = append(*sec, r)
		}
	}
	return nil
}

// section empties s with room for n entries: in s's own array when it
// has the room, else in a fresh one (none when n is 0).
func section[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:0]
	}
	return make([]T, 0, n)
}

// The shortest encodings: a root or pointer name plus the fixed fields.
const (
	minQuestionLen = 1 + 4
	minRecordLen   = 1 + 10
)

// sectionCap sizes a section once: the header's count, capped by how many
// entries the remaining bytes could hold, so a hostile count sizes nothing.
func sectionCap(count, remaining, minLen int) int {
	return min(count, remaining/minLen)
}

// questionNameOff is where the first question's name starts.
const questionNameOff = 12

func readRecord(b []byte, off int, qs []Question) (Record, int, error) {
	var r Record
	var err error
	// An owner name that is a bare pointer to the first question's name —
	// every answer record of an NS or address response — decodes to that
	// question's string, so share it.
	if len(qs) > 0 && off+1 < len(b) && b[off] == 0xC0 && b[off+1] == questionNameOff {
		r.Name, off = qs[0].Name, off+2
	} else if r.Name, off, err = dnsname.ReadWire(b, off); err != nil {
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
		if r.NS, _, err = dnsname.ReadWire(b, off); err != nil {
			return r, 0, err
		}
	case TypeCNAME:
		if r.CNAME, _, err = dnsname.ReadWire(b, off); err != nil {
			return r, 0, err
		}
	case TypeSOA:
		p := off
		if r.SOA.MName, p, err = dnsname.ReadWire(b, p); err != nil {
			return r, 0, err
		}
		if r.SOA.RName, p, err = dnsname.ReadWire(b, p); err != nil {
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
		if r.MX.Exchange, _, err = dnsname.ReadWire(b, off+2); err != nil {
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
