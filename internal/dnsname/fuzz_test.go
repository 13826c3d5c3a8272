package dnsname

import (
	"strings"
	"testing"
)

// FuzzReadWire drives the compressed-name decoder with arbitrary bytes:
// it must never panic, never loop, agree with the reference decoder on
// name, next offset and error, and every successfully decoded name must
// round-trip through AppendWire to the identical canonical string.
func FuzzReadWire(f *testing.F) {
	seed, _ := AppendWire(nil, "www.example.com")
	f.Add(seed, 0)
	f.Add([]byte{0xC0, 0x00}, 0)
	f.Add([]byte{3, 'c', 'o', 'm', 0, 0xC0, 0x00}, 5)
	f.Add([]byte{}, 0)
	f.Add([]byte{3, 0xc3, 0x89, 'A', 2, 'b', '.', 0}, 0)
	f.Fuzz(func(t *testing.T, data []byte, off int) {
		if off < 0 || off > len(data) {
			off = 0
		}
		sameReadWire(t, data, off)
		name, next, err := ReadWire(data, off)
		if err != nil {
			return
		}
		if next < off || next > len(data) {
			t.Fatalf("next offset %d outside [%d, %d]", next, off, len(data))
		}
		if strings.HasSuffix(name, ".") {
			// A wire label ending in "..": Canonical strips one dot a
			// pass, so such a name has no canonical fixed point.
			return
		}
		if Canonical(name) != name {
			t.Fatalf("decoded name %q not canonical", name)
		}
		// Names short enough to be legal must re-encode and decode back.
		wire, err := AppendWire(nil, name)
		if err != nil {
			return // over-long names can be smuggled via pointers
		}
		again, _, err := ReadWire(wire, 0)
		if err != nil || again != name {
			t.Fatalf("round trip %q → %q (%v)", name, again, err)
		}
	})
}

// FuzzCompressorAgainstReader checks that whatever the Compressor emits
// is what the reference compressor emits, and that the reader recovers
// the original names, for arbitrary pairs of names derived from the fuzz
// input.
func FuzzCompressorAgainstReader(f *testing.F) {
	f.Add("www.example.com", "mail.example.com")
	f.Add("a.b", "b")
	f.Fuzz(func(t *testing.T, n1, n2 string) {
		var c Compressor
		var ref refCompressor
		msg, err := c.Append(nil, n1)
		want, wantErr := ref.Append(nil, n1)
		if err == nil && wantErr == nil {
			msg, err = c.Append(msg, n2)
			want, wantErr = ref.Append(want, n2)
		}
		if err != wantErr || string(msg) != string(want) {
			t.Fatalf("%q, %q: got %x, %v; reference %x, %v", n1, n2, msg, err, want, wantErr)
		}
		n1, n2 = Canonical(n1), Canonical(n2)
		if Check(n1) != nil || Check(n2) != nil || strings.HasSuffix(n1, ".") || strings.HasSuffix(n2, ".") {
			// Check forgives the dot a doubled trailing dot leaves behind;
			// the reader hands back the name without it.
			return
		}
		c = Compressor{}
		msg, err = c.Append(nil, n1)
		if err != nil {
			return
		}
		mid := len(msg)
		msg, err = c.Append(msg, n2)
		if err != nil {
			return
		}
		got1, next, err := ReadWire(msg, 0)
		if err != nil || got1 != n1 || next != mid {
			t.Fatalf("first: %q/%d, %v (want %q/%d)", got1, next, err, n1, mid)
		}
		got2, end, err := ReadWire(msg, mid)
		if err != nil || got2 != n2 || end != len(msg) {
			t.Fatalf("second: %q/%d, %v (want %q/%d)", got2, end, err, n2, len(msg))
		}
	})
}
