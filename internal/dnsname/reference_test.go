package dnsname

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The wire codec as it stood before it stopped allocating per label and
// per suffix: a strings.Builder decoder and a map-only compressor. Kept
// verbatim as the oracle the differential tests below (and FuzzReadWire)
// hold ReadWire and Compressor to — same names, same offsets, same error,
// same bytes.

type refCompressor struct {
	offsets map[string]int
}

func (c *refCompressor) Append(msg []byte, name string) ([]byte, error) {
	if c.offsets == nil {
		c.offsets = make(map[string]int)
	}
	name = Canonical(name)
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
			return msg, ErrEmpty
		}
		if len(label) > MaxLabelLen {
			return msg, ErrLabelTooLong
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
			return "", 0, ErrTruncated
		}
		b := msg[off]
		switch {
		case b == 0:
			if !jumped {
				next = off + 1
			}
			return Canonical(sb.String()), next, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncated
			}
			ptr := int(b&0x3F)<<8 | int(msg[off+1])
			if !jumped {
				next = off + 2
			}
			if ptr >= off {
				return "", 0, ErrBadCompress
			}
			off = ptr
			jumped = true
			if hops++; hops > MaxLabels {
				return "", 0, ErrPointerLoop
			}
		case b&0xC0 != 0:
			return "", 0, ErrBadCompress
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return "", 0, ErrTruncated
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(msg[off+1 : off+1+l])
			if sb.Len() > MaxNameLen {
				return "", 0, ErrTooLong
			}
			off += 1 + l
		}
	}
}

// sameReadWire fails unless ReadWire and the reference agree on msg at off.
func sameReadWire(t *testing.T, msg []byte, off int) {
	t.Helper()
	name, next, err := ReadWire(msg, off)
	wantName, wantNext, wantErr := refReadWire(msg, off)
	if name != wantName || next != wantNext || !errors.Is(err, wantErr) || (err == nil) != (wantErr == nil) {
		t.Fatalf("ReadWire(%x, %d) = %q, %d, %v; reference %q, %d, %v", msg, off, name, next, err, wantName, wantNext, wantErr)
	}
}

// TestReadWireMatchesReference walks the cases the rewrite could have
// moved: case folding with and without bytes outside ASCII (the latter is
// strings.ToLower's rune path, which can change a name's length), labels
// that contain or end in '.', names at and past the 253-octet limit, and
// pointer chains at the hop limit.
func TestReadWireMatchesReference(t *testing.T) {
	label := func(s string) []byte { return append([]byte{byte(len(s))}, s...) }
	join := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	l63 := strings.Repeat("a", 63)
	msgs := [][]byte{
		join(label("WWW"), label("Example"), label("COM"), []byte{0}),
		join(label("caf\xc3\x89"), label("COM"), []byte{0}),                  // É folds to é
		join(label("\xc4\xb0x"), label("Y"), []byte{0}),                      // İ (2 bytes) folds to i (1)
		join(label("\xc8\xbaZ"), []byte{0}),                                  // Ⱥ (2 bytes) folds to ⱥ (3)
		join(label("\xff\xfeA"), []byte{0}),                                  // invalid UTF-8 beside an upper-case letter
		join(label("\xff\xfea"), []byte{0}),                                  // the same without one: bytes pass through
		join(label("a.b"), label("c"), []byte{0}),                            // '.' inside a label
		join(label("a"), label("b."), []byte{0}),                             // label ending in '.'
		join(label("."), []byte{0}),                                          // the label "."
		join(label("A"), label(".."), []byte{0}),                             // only one trailing dot goes
		join(label(l63), label(l63), label(l63), label(l63[:61]), []byte{0}), // 253: the longest legal name
		join(label(l63), label(l63), label(l63), label(l63[:62]), []byte{0}), // 254
		join(label(l63), label(l63), label(l63), label(l63), label("b"), []byte{0}),
		{0},
		{},
		{0x40, 'a', 0},
		{3, 'c', 'o'},
		{0xC0},
		{0xC0, 0x00},
	}
	for _, m := range msgs {
		for off := 0; off <= len(m); off++ {
			sameReadWire(t, m, off)
		}
	}
	// A pointer chain: name k is one label then a pointer to name k-1.
	chain := join(label("root"), []byte{0})
	starts := []int{0}
	for k := 1; k <= MaxLabels+2; k++ {
		starts = append(starts, len(chain))
		prev := starts[k-1]
		chain = append(chain, 1, 'x', 0xC0|byte(prev>>8), byte(prev))
	}
	for _, off := range starts {
		sameReadWire(t, chain, off)
	}
}

// TestReadWireAllocatesOnce pins the decoder's cost: the returned string
// and nothing else, compressed or not, folded or not.
func TestReadWireAllocatesOnce(t *testing.T) {
	var c Compressor
	msg, _ := c.Append(nil, "ns1.Provider-Example.net")
	second := len(msg)
	msg, _ = c.Append(msg, "ns2.provider-example.net")
	msg[5] = 'P' // an upper-case byte on the wire: folding must not cost a second string
	for _, off := range []int{0, second} {
		if n := testing.AllocsPerRun(200, func() { ReadWire(msg, off) }); n != 1 {
			t.Errorf("ReadWire at %d: %v allocations, want 1", off, n)
		}
	}
}

// TestCompressorMatchesReference appends random name sequences — built
// from a small label pool so suffixes repeat, long enough to run past the
// inline table into the map, salted with names the validator would refuse
// (empty labels, residual trailing dots, over-long labels) — through both
// compressors and requires identical bytes and identical errors.
func TestCompressorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pool := []string{"a", "b", "ns1", "ns2", "example", "Provider", "com", "net", "x-y", strings.Repeat("l", 63)}
	odd := []string{"", ".", "..", "a..b", ".a", "a.b..", "b..", "com..", "a.com..", strings.Repeat("m", 64) + ".com", "com.", "NET."}
	gen := func() string {
		if rng.Intn(8) == 0 {
			return odd[rng.Intn(len(odd))]
		}
		n := 1 + rng.Intn(4)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = pool[rng.Intn(len(pool))]
		}
		if rng.Intn(6) == 0 {
			parts[0] = fmt.Sprintf("h%d", rng.Intn(500)) // fresh suffixes, to fill the table
		}
		return strings.Join(parts, ".")
	}
	for round := 0; round < 300; round++ {
		var c Compressor
		var ref refCompressor
		var msg, want []byte
		if round%3 == 0 {
			// Start beyond where pointers can reach for part of the run.
			msg = make([]byte, 0x4000-40)
			want = make([]byte, 0x4000-40)
		}
		names := 1 + rng.Intn(120)
		for k := 0; k < names; k++ {
			name := gen()
			var err, wantErr error
			msg, err = c.Append(msg, name)
			want, wantErr = ref.Append(want, name)
			if err != wantErr || string(msg) != string(want) {
				t.Fatalf("round %d, name %d %q: got %x, %v; reference %x, %v", round, k, name, msg, err, want, wantErr)
			}
			if err != nil {
				break // a failed Append leaves a compressor nobody may reuse
			}
		}
	}
}

// refCheck is Check as it stood before it walked labels in place: the
// name split into a label slice first. Kept as the oracle
// TestCheckMatchesReference holds Check to, error for error.
func refCheck(s string) error {
	s = strings.TrimSuffix(s, ".")
	if s == "" {
		return nil
	}
	if len(s) > MaxNameLen {
		return ErrTooLong
	}
	labels := strings.Split(s, ".")
	if len(labels) > MaxLabels {
		return ErrTooManyLabels
	}
	for _, l := range labels {
		if err := checkLabel(l); err != nil {
			return fmt.Errorf("%w in %q", err, s)
		}
	}
	return nil
}

// TestCheckMatchesReference compares Check with the split form on names
// built to hit every rule: valid LDH names, each bad-character, hyphen,
// underscore and wildcard case, empty labels anywhere, one or two
// trailing dots, and names at and past the 253-octet and 127-label
// limits. Both the error and its message must agree.
func TestCheckMatchesReference(t *testing.T) {
	pieces := []string{"a", "example", "com", "x-y", "-x", "x-", "_dmarc", "a_b", "*", "*x", "A1", "é", "a b",
		"", strings.Repeat("l", 63), strings.Repeat("l", 64)}
	rng := rand.New(rand.NewSource(3))
	names := []string{"", ".", "..", "a.", "a..", strings.Repeat("a.", 126) + "a", strings.Repeat("a.", 127) + "a",
		strings.Repeat("a.", 127), strings.Repeat(".", 200), strings.Repeat("ab.", 84) + "a", strings.Repeat("ab.", 84) + "ab"}
	for i := 0; i < 50_000; i++ {
		parts := make([]string, 1+rng.Intn(8))
		for j := range parts {
			parts[j] = pieces[rng.Intn(len(pieces))]
		}
		name := strings.Join(parts, ".")
		if rng.Intn(4) == 0 {
			name += strings.Repeat(".", 1+rng.Intn(2))
		}
		names = append(names, name)
	}
	for _, name := range names {
		got, want := Check(name), refCheck(name)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("Check(%q) = %v, reference %v", name, got, want)
		}
		for _, sentinel := range []error{ErrEmpty, ErrTooLong, ErrLabelTooLong, ErrBadChar, ErrBadHyphen, ErrTooManyLabels} {
			if errors.Is(got, sentinel) != errors.Is(want, sentinel) {
				t.Fatalf("Check(%q) = %v, reference %v: disagree on %v", name, got, want, sentinel)
			}
		}
	}
}

// TestCheckAllocatesNothing pins validating a good name, the ingest
// path's per-candidate case, at zero allocations.
func TestCheckAllocatesNothing(t *testing.T) {
	for _, name := range []string{"fresh.com", "www.some-host.example.co.uk.", "_dmarc.x-y.shop", "*.a.b"} {
		if allocs := testing.AllocsPerRun(100, func() { _ = Check(name) }); allocs != 0 {
			t.Errorf("Check(%q) allocates %v times, want 0", name, allocs)
		}
	}
}
