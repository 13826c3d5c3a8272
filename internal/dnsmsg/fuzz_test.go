package dnsmsg

import (
	"bytes"
	"testing"
)

// FuzzUnpack feeds arbitrary bytes through the message decoder; any input
// must produce either a message or an error, never a panic, and exactly
// what the reference decoder makes of it; any successfully decoded
// message must re-encode without error, to the reference encoder's bytes.
func FuzzUnpack(f *testing.F) {
	seed, _ := sampleMessage().Pack()
	f.Add(seed)
	q, _ := NewQuery(1, "example.com", TypeA).Pack()
	f.Add(q)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xC0}, 64)) // pointer storms
	ns, _ := nsAnswer(4).Pack()
	f.Add(ns)
	f.Fuzz(func(t *testing.T, data []byte) {
		sameUnpack(t, data)
		m, err := Unpack(data)
		if err != nil {
			return
		}
		if wire, err := m.Pack(); err == nil {
			if want, _ := refPack(m); !bytes.Equal(wire, want) {
				t.Fatalf("repack differs from the reference\n got %x\nwant %x", wire, want)
			}
		}
		// Decoded messages must re-encode; names from the wire are
		// canonical by construction. Repacking may legitimately fail for
		// semantic reasons (e.g. an A record whose rdlen was 4 but whose
		// address slot is unspecified is impossible here, since decode
		// validates lengths), so treat re-pack errors as findings.
		if _, err := m.Pack(); err != nil {
			// One legitimate case: names longer than 253 octets can be
			// smuggled via compression pointers. Accept name-length
			// errors, fail on anything else.
			if !bytes.Contains([]byte(err.Error()), []byte("dnsname")) {
				t.Fatalf("repack of decoded message failed: %v", err)
			}
		}
	})
}
