package feed

import (
	"bytes"
	"fmt"
	"strconv"
	"time"
	"unicode/utf8"

	"darkdns/internal/stream"
)

// DATA-frame codec. The reflective codec (encodeFrame, decodeFrame's
// fallback) stays the definition of the wire format: appendEntry produces
// exactly the bytes json.Marshal(Entry{...}) would, and decodeDataFrame
// accepts exactly the lines those bytes form and declines the rest to
// json.Unmarshal. wire_test.go holds both to it.

const (
	dataFramePrefix = `{"frame":"data","entries":[`
	dataFrameNext   = `],"next":`
	hexDigits       = "0123456789abcdef"
)

// wireSafe marks the ASCII bytes encoding/json copies into a string
// unescaped under its default HTML-safe rules: everything from 0x20 up
// except the quote, the backslash and < > &.
var wireSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range []byte(`"\<>&`) {
		t[b] = false
	}
	return t
}()

// wireEntry is one topic message in delivery form: its offset and its
// encoded JSON object. A nil enc marks an entry that could not be
// encoded; the writer turns it into an encode GAP. enc is read-only and
// full-slice-capped — the pump's encodings are shared by every live
// subscriber's queue.
type wireEntry struct {
	off int64
	enc []byte
}

// appendEntry appends one entry's JSON object to dst, byte for byte what
// json.Marshal(Entry{offset, at, domain, string(raw)}) returns. It fails
// exactly when that does — a time RFC 3339 cannot carry — and then
// returns dst at its original length.
func appendEntry(dst []byte, offset int64, at time.Time, domain string, raw []byte) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, `{"offset":`...)
	dst = strconv.AppendInt(dst, offset, 10)
	dst = append(dst, `,"time":"`...)
	// AppendText runs the strict check Time.MarshalJSON runs, and returns
	// no slice when it fails.
	stamped, err := at.AppendText(dst)
	if err != nil {
		return dst[:n0], fmt.Errorf("feed: encode entry %d: %w", offset, err)
	}
	dst = append(stamped, `","domain":`...)
	dst = appendJSONString(dst, domain)
	if len(raw) > 0 {
		dst = append(dst, `,"raw":`...)
		dst = appendJSONString(dst, raw)
	}
	return append(dst, '}'), nil
}

// appendJSONString appends src as a JSON string literal under
// encoding/json's HTML-safe escaping: short forms for the quote, the
// backslash and \b \f \n \r \t, \u00XX for the other control bytes and
// < > &, U+2028 and U+2029 as \u202X, each invalid UTF-8 byte as the six
// bytes \ufffd.
func appendJSONString[S []byte | string](dst []byte, src S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		b := src[i]
		if b < utf8.RuneSelf {
			if wireSafe[b] {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// A conversion this short stays on the stack for either S.
		c, size := utf8.DecodeRuneInString(string(src[i:min(i+utf8.UTFMax, len(src))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, src[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, src[start:]...)
	return append(dst, '"')
}

// encodeBatch appends each message's wire form to slab and its wireEntry
// to out. Entries index the slab they were written to, so growing it
// mid-batch leaves earlier ones valid in the array they already share.
func encodeBatch(slab []byte, out []wireEntry, msgs []stream.Message) ([]byte, []wireEntry) {
	for i := range msgs {
		m := &msgs[i]
		start := len(slab)
		e := wireEntry{off: m.Offset}
		var err error
		if slab, err = appendEntry(slab, m.Offset, m.Time, m.Key, m.Value); err == nil {
			e.enc = slab[start:len(slab):len(slab)]
		}
		out = append(out, e)
	}
	return slab, out
}

// appendDataFrame appends the DATA frame line carrying run, whose
// entries all hold an encoding.
func appendDataFrame(dst []byte, run []wireEntry) []byte {
	dst = append(dst, dataFramePrefix...)
	for i := range run {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, run[i].enc...)
	}
	dst = append(dst, dataFrameNext...)
	dst = strconv.AppendInt(dst, run[len(run)-1].off+1, 10)
	return append(dst, '}', '\n')
}

// decodeDataFrame decodes line when it is a DATA frame in the one byte
// shape appendDataFrame emits — the prefix, one or more objects with
// exactly the keys offset, time, domain and optionally raw in that order,
// no whitespace, then the next cursor and nothing after it — appending
// the entries to buf. On any other input it reports !ok and the caller
// falls back to json.Unmarshal, so accepting must mean producing what
// json.Unmarshal would: each check below declines a case where the two
// could differ or where the reflective decoder would have to say why the
// line is bad.
func decodeDataFrame(line []byte, buf []Entry) (entries []Entry, next int64, ok bool) {
	p, ok := bytes.CutPrefix(line, []byte(dataFramePrefix))
	if !ok {
		return nil, 0, false
	}
	var scratch [256]byte // unescaping space; longer strings spill to the heap
	entries = buf
	for {
		entries = append(entries, Entry{})
		e := &entries[len(entries)-1]
		if p, ok = bytes.CutPrefix(p, []byte(`{"offset":`)); !ok {
			return nil, 0, false
		}
		if e.Offset, p, ok = cutOffset(p); !ok {
			return nil, 0, false
		}
		if p, ok = bytes.CutPrefix(p, []byte(`,"time":`)); !ok {
			return nil, 0, false
		}
		// The token goes to the method encoding/json itself calls, quotes
		// included. Only printable ASCII may sit between them: an escape
		// would reach UnmarshalJSON undecoded either way, but then the
		// token would not end at the first quote.
		if len(p) == 0 || p[0] != '"' {
			return nil, 0, false
		}
		end := 1
		for ; end < len(p) && p[end] != '"'; end++ {
			if c := p[end]; c < 0x20 || c >= utf8.RuneSelf || c == '\\' {
				return nil, 0, false
			}
		}
		if end == len(p) || e.Time.UnmarshalJSON(p[:end+1]) != nil {
			return nil, 0, false
		}
		if p, ok = bytes.CutPrefix(p[end+1:], []byte(`,"domain":`)); !ok {
			return nil, 0, false
		}
		if e.Domain, p, ok = cutString(p, scratch[:0]); !ok {
			return nil, 0, false
		}
		if rest, hasRaw := bytes.CutPrefix(p, []byte(`,"raw":`)); hasRaw {
			if e.Raw, p, ok = cutString(rest, scratch[:0]); !ok {
				return nil, 0, false
			}
		}
		if len(p) < 2 || p[0] != '}' {
			return nil, 0, false
		}
		if p[1] != ',' {
			p = p[1:]
			break
		}
		p = p[2:]
	}
	if p, ok = bytes.CutPrefix(p, []byte(dataFrameNext)); !ok {
		return nil, 0, false
	}
	if next, p, ok = cutOffset(p); !ok || len(p) != 1 || p[0] != '}' {
		return nil, 0, false
	}
	return entries, next, true
}

// cutOffset reads a plain digit run: no sign, fraction or exponent, no
// leading zero, and short enough that it cannot overflow an int64.
func cutOffset(p []byte) (v int64, rest []byte, ok bool) {
	n := 0
	for n < len(p) && n <= 18 && '0' <= p[n] && p[n] <= '9' {
		v = v*10 + int64(p[n]-'0')
		n++
	}
	if n == 0 || n > 18 || (n > 1 && p[0] == '0') {
		return 0, p, false
	}
	return v, p[n:], true
}

// cutString reads one JSON string literal. It declines what
// encoding/json would reject (control bytes, unknown escapes, bad hex)
// and what it would silently rewrite (invalid UTF-8, surrogate escapes).
// A literal without escapes costs its one copy; one with escapes is
// assembled in scratch first, run by run.
func cutString(p []byte, scratch []byte) (s string, rest []byte, ok bool) {
	if len(p) == 0 || p[0] != '"' {
		return "", p, false
	}
	out, start, ascii := scratch, 1, true
	for i := 1; i < len(p); i++ {
		c := p[i]
		switch {
		case c == '"':
			// Escapes are ASCII, so the literal's bytes are valid UTF-8
			// exactly when every run between them is.
			if !ascii && !utf8.Valid(p[1:i]) {
				return "", p, false
			}
			if start == 1 {
				return string(p[1:i]), p[i+1:], true
			}
			return string(append(out, p[start:i]...)), p[i+1:], true
		case c < 0x20:
			return "", p, false
		case c != '\\':
			ascii = ascii && c < utf8.RuneSelf
			continue
		}
		out = append(out, p[start:i]...)
		if i++; i >= len(p) {
			return "", p, false
		}
		switch p[i] {
		case '"', '\\', '/':
			out = append(out, p[i])
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			if i+4 >= len(p) {
				return "", p, false
			}
			// Base 16 admits hex digits of either case and nothing else.
			r, err := strconv.ParseUint(string(p[i+1:i+5]), 16, 32)
			if err != nil || (0xD800 <= r && r < 0xE000) {
				return "", p, false
			}
			out = utf8.AppendRune(out, rune(r))
			i += 4
		default:
			return "", p, false
		}
		start = i + 1
	}
	return "", p, false
}
