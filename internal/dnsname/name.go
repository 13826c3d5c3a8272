// Package dnsname implements DNS domain-name handling: validation,
// canonicalization, label manipulation and the RFC 1035 wire encoding with
// message compression.
//
// Names are represented in their canonical presentation form: lower-case,
// no trailing dot ("example.com"). The empty string is the root zone.
package dnsname

import (
	"errors"
	"fmt"
	"strings"
)

// Limits from RFC 1035 §2.3.4.
const (
	MaxNameLen  = 253 // presentation form, excluding trailing dot
	MaxLabelLen = 63
	MaxLabels   = 127
)

// Errors returned by validation and wire decoding.
var (
	ErrEmpty         = errors.New("dnsname: empty label")
	ErrTooLong       = errors.New("dnsname: name exceeds 253 octets")
	ErrLabelTooLong  = errors.New("dnsname: label exceeds 63 octets")
	ErrBadChar       = errors.New("dnsname: invalid character")
	ErrBadHyphen     = errors.New("dnsname: label starts or ends with hyphen")
	ErrBadCompress   = errors.New("dnsname: invalid compression pointer")
	ErrTruncated     = errors.New("dnsname: truncated name")
	ErrPointerLoop   = errors.New("dnsname: compression pointer loop")
	ErrTooManyLabels = errors.New("dnsname: too many labels")
)

// Canonical lower-cases s and strips a single trailing dot. It performs no
// validation; combine with Check for untrusted input.
func Canonical(s string) string {
	s = strings.TrimSuffix(s, ".")
	// Fast path: already lower-case.
	lower := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' {
			lower = false
			break
		}
	}
	if lower {
		return s
	}
	return strings.ToLower(s)
}

// Check validates a name in presentation form. Hostname rules (LDH) are
// applied per label, with underscore additionally permitted as a leading
// character to admit service labels such as _dmarc. A valid name costs no
// allocation: the labels are walked in place.
func Check(s string) error {
	s = strings.TrimSuffix(s, ".")
	if s == "" {
		return nil // root
	}
	if len(s) > MaxNameLen {
		return ErrTooLong
	}
	if strings.Count(s, ".") >= MaxLabels {
		return ErrTooManyLabels
	}
	for rest, more := s, true; more; {
		var l string
		l, rest, more = strings.Cut(rest, ".")
		if err := checkLabel(l); err != nil {
			return fmt.Errorf("%w in %q", err, s)
		}
	}
	return nil
}

func checkLabel(l string) error {
	if l == "" {
		return ErrEmpty
	}
	if len(l) > MaxLabelLen {
		return ErrLabelTooLong
	}
	for i := 0; i < len(l); i++ {
		c := l[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '-':
			if i == 0 || i == len(l)-1 {
				return ErrBadHyphen
			}
		case c == '_':
			if i != 0 {
				return ErrBadChar
			}
		case c == '*':
			// Wildcard label: must be the sole character.
			if len(l) != 1 {
				return ErrBadChar
			}
		default:
			return ErrBadChar
		}
	}
	return nil
}

// Labels splits a canonical name into its labels, leftmost first.
// The root name yields nil.
func Labels(s string) []string {
	s = strings.TrimSuffix(s, ".")
	if s == "" {
		return nil
	}
	return strings.Split(s, ".")
}

// CountLabels returns the number of labels without allocating.
func CountLabels(s string) int {
	s = strings.TrimSuffix(s, ".")
	if s == "" {
		return 0
	}
	return strings.Count(s, ".") + 1
}

// Hash64 returns the FNV-1a hash of s. Shard-striped stores (the
// resolver cache, the RDAP rate limiter) key their stripe selection on
// it, and the pipeline seeds each candidate's
// decision generator with it; it is inlined rather than built on
// hash/fnv so the hot paths stay allocation-free. Callers hash the
// Canonical form of a name so equal domains always land in one stripe.
func Hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Mix64 is the splitmix64 finalizer: a bijective avalanche over x. Every
// seeded per-domain derivation (the pipeline's decision generators)
// mixes through this one function, so the cross-package determinism
// contract has a single definition —
// the derived decision for a (seed, domain) pair is the same everywhere.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TLD returns the rightmost label of s, or "" for the root.
func TLD(s string) string {
	s = strings.TrimSuffix(s, ".")
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// Parent returns the name with its leftmost label removed
// ("a.b.c" → "b.c"). The parent of a single label is the root "".
func Parent(s string) string {
	s = strings.TrimSuffix(s, ".")
	if i := strings.IndexByte(s, '.'); i >= 0 {
		return s[i+1:]
	}
	return ""
}

// IsSubdomain reports whether child equals parent or falls underneath it.
// Both arguments must be canonical. Every name is a subdomain of the root.
func IsSubdomain(child, parent string) bool {
	if parent == "" {
		return true
	}
	if child == parent {
		return true
	}
	return strings.HasSuffix(child, "."+parent)
}

// Join concatenates labels into a presentation-form name, skipping empties.
func Join(labels ...string) string {
	nonEmpty := labels[:0:0]
	for _, l := range labels {
		if l != "" {
			nonEmpty = append(nonEmpty, l)
		}
	}
	return strings.Join(nonEmpty, ".")
}

// Compare orders names in DNSSEC canonical order (RFC 4034 §6.1): by label
// from the rightmost, case-insensitively (inputs are assumed canonical).
// It returns -1, 0 or +1.
func Compare(a, b string) int {
	la, lb := Labels(a), Labels(b)
	for i := 1; i <= len(la) && i <= len(lb); i++ {
		x, y := la[len(la)-i], lb[len(lb)-i]
		if x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(la) < len(lb):
		return -1
	case len(la) > len(lb):
		return 1
	}
	return 0
}

// Wire encoding -------------------------------------------------------------

// AppendWire appends the uncompressed RFC 1035 wire encoding of a canonical
// name to buf and returns the extended slice.
func AppendWire(buf []byte, name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return append(buf, 0), nil
	}
	if len(name) > MaxNameLen {
		return buf, ErrTooLong
	}
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '.' {
			l := name[start:i]
			if l == "" {
				return buf, ErrEmpty
			}
			if len(l) > MaxLabelLen {
				return buf, ErrLabelTooLong
			}
			buf = append(buf, byte(len(l)))
			buf = append(buf, l...)
			start = i + 1
		}
	}
	return append(buf, 0), nil
}

// compressorInline is how many suffix offsets a Compressor keeps in its
// inline table before it starts a map. A 512-byte response fits about 40
// names, so only zone-transfer-sized messages ever reach the map.
const compressorInline = 64

// dottedBit marks an inline entry whose recorded suffix kept a trailing
// dot ("b." from the name "a.b.."): it encodes the same labels as "b"
// but is a different suffix string. Offsets are below 0x4000, so the bit
// is free.
const dottedBit = 1 << 15

// Compressor tracks name→offset mappings for DNS message compression.
// A zero Compressor is ready for use on a message built from offset 0.
// Every suffix it writes is recorded once, at its first occurrence: the
// first compressorInline of them as bare offsets that later lookups
// compare against the message bytes themselves, the rest in a map.
type Compressor struct {
	n       int
	inline  [compressorInline]uint16
	offsets map[string]int // suffixes recorded once inline is full
}

// Append writes name at the current end of msg using compression pointers
// into earlier occurrences where possible, and records new suffix offsets.
// msg must be the buffer earlier calls extended.
func (c *Compressor) Append(msg []byte, name string) ([]byte, error) {
	name = Canonical(name)
	for {
		if name == "" {
			return append(msg, 0), nil
		}
		if off, ok := c.find(msg, name); ok {
			return append(msg, 0xC0|byte(off>>8), byte(off)), nil
		}
		// Record the offset of this suffix if it is pointer-addressable.
		if len(msg) < 0x4000 {
			c.record(name, len(msg))
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

// find returns the offset at which the non-empty suffix was recorded.
func (c *Compressor) find(msg []byte, suffix string) (int, bool) {
	labels, dotted := suffix, suffix[len(suffix)-1] == '.'
	if dotted {
		labels = suffix[:len(suffix)-1]
	}
	for _, e := range c.inline[:c.n] {
		if off := int(e &^ dottedBit); (e&dottedBit != 0) == dotted && wireEqual(msg, off, labels) {
			return off, true
		}
	}
	off, ok := c.offsets[suffix]
	return off, ok
}

func (c *Compressor) record(suffix string, off int) {
	if c.n < len(c.inline) {
		e := uint16(off)
		if suffix[len(suffix)-1] == '.' {
			e |= dottedBit
		}
		c.inline[c.n] = e
		c.n++
		return
	}
	if c.offsets == nil {
		c.offsets = make(map[string]int)
	}
	c.offsets[suffix] = off
}

// wireEqual reports whether the name a Compressor wrote at msg[off:] —
// labels, possibly ending in one of its own backward pointers — spells
// exactly the dot-separated labels of s.
func wireEqual(msg []byte, off int, s string) bool {
	for off < len(msg) {
		l := int(msg[off])
		switch {
		case l == 0:
			return s == ""
		case l&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return false
			}
			ptr := (l&0x3F)<<8 | int(msg[off+1])
			if ptr >= off {
				return false
			}
			off = ptr
			continue
		}
		// The next label of s must be l bytes long, then match.
		if len(s) < l || (len(s) > l && s[l] != '.') || off+1+l > len(msg) ||
			string(msg[off+1:off+1+l]) != s[:l] {
			return false
		}
		off += 1 + l
		if s = s[l:]; s != "" {
			if s = s[1:]; s == "" {
				return false // s ended in an empty label
			}
		}
	}
	return false
}

// ReadWire decodes a (possibly compressed) name from msg starting at off.
// It returns the canonical name and the offset just past the name's
// encoding in the original stream (compression targets do not advance it).
// The name is assembled on the stack; the returned string is the only
// allocation.
func ReadWire(msg []byte, off int) (name string, next int, err error) {
	var buf [MaxNameLen + 1]byte // +1: the separator written before the too-long check
	n := 0
	upper, high := false, false
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
			return canonicalFromWire(buf[:n], upper, high), next, nil
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
			if n > 0 {
				buf[n] = '.'
				n++
			}
			if n+l > MaxNameLen {
				return "", 0, ErrTooLong
			}
			for _, ch := range msg[off+1 : off+1+l] {
				upper = upper || ('A' <= ch && ch <= 'Z')
				high = high || ch >= 0x80
				buf[n] = ch
				n++
			}
			off += 1 + l
		}
	}
}

// canonicalFromWire is Canonical over the assembled bytes: a wire label may
// itself end in '.', which Canonical strips like a trailing dot, and
// lower-casing bytes that are not all ASCII is left to strings.ToLower.
func canonicalFromWire(b []byte, upper, high bool) string {
	if len(b) > 0 && b[len(b)-1] == '.' {
		b = b[:len(b)-1]
	}
	switch {
	case !upper:
	case high:
		return strings.ToLower(string(b))
	default:
		for i, ch := range b {
			if 'A' <= ch && ch <= 'Z' {
				b[i] = ch + ('a' - 'A')
			}
		}
	}
	return string(b)
}
