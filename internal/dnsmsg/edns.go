package dnsmsg

import "encoding/binary"

// EDNS0 (RFC 6891) support: the OPT pseudo-record advertises the
// requester's UDP payload capacity. The measurement fleet sends OPT so
// TLD servers can return full NS sets without TCP fallback; dnsserver
// honours the advertised size when truncating.

// DefaultEDNSSize is the payload size the measurement clients advertise.
const DefaultEDNSSize = 4096

// SetEDNS0 appends an OPT pseudo-record to the additional section (or
// updates an existing one) advertising the given UDP payload size.
func (m *Message) SetEDNS0(udpSize uint16) {
	for i := range m.Additional {
		if m.Additional[i].Type == TypeOPT {
			m.Additional[i].Class = Class(udpSize)
			return
		}
	}
	m.Additional = append(m.Additional, Record{
		Name:  "", // root
		Type:  TypeOPT,
		Class: Class(udpSize), // RFC 6891: CLASS field carries the size
		TTL:   0,              // extended RCODE and flags, all zero here
	})
}

// EDNSSize returns the advertised UDP payload size from an OPT record,
// with ok=false when the message carries none. Sizes below 512 are
// clamped up per RFC 6891 §6.2.5.
func (m *Message) EDNSSize() (size uint16, ok bool) {
	for i := range m.Additional {
		if m.Additional[i].Type == TypeOPT {
			size = uint16(m.Additional[i].Class)
			if size < 512 {
				size = 512
			}
			return size, true
		}
	}
	return 0, false
}

// AppendOPT appends an OPT pseudo-record without options, advertising
// udpSize, to the packed message that starts at b[off], and counts it in
// that message's ARCOUNT: SetEDNS0 for a message already on the wire. The
// record is the root name, TYPE 41, the size in CLASS, a zero TTL
// (extended RCODE and flags) and an empty RDATA.
func AppendOPT(b []byte, off int, udpSize uint16) []byte {
	ar := b[off+10:]
	binary.BigEndian.PutUint16(ar, binary.BigEndian.Uint16(ar)+1)
	return append(b, 0, byte(TypeOPT>>8), byte(TypeOPT), byte(udpSize>>8), byte(udpSize), 0, 0, 0, 0, 0, 0)
}
