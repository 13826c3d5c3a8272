package feed

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// encodeCommand renders a parsed command back onto the wire grammar —
// the fuzz oracle's inverse for parseCommand. Tenants are whitespace-free
// by construction (parseCommand splits on fields), so plain joins are
// exact.
func encodeCommand(c command) string {
	switch c.verb {
	case "HELLO":
		return "HELLO " + c.tenant
	case "SUBSCRIBE":
		if c.from < 0 {
			return "SUBSCRIBE"
		}
		return fmt.Sprintf("SUBSCRIBE FROM %d", c.from)
	default: // UNSUBSCRIBE
		return c.verb
	}
}

// FuzzFeedProtocol drives both halves of the wire grammar from one seed
// corpus, in the FuzzColumnarRoundTrip style. Command direction: any
// line must parse without panicking, rejections must carry a structured
// code, and every accepted command must re-encode to a line that parses
// back to the identical command. Frame direction: any bytes must decode
// without panicking and exactly as the reflective reference decodes them
// (same error-ness, same frame — the fast DATA decoder may only ever
// agree or decline), and every accepted frame must survive an
// encode→decode→encode cycle byte-for-byte.
func FuzzFeedProtocol(f *testing.F) {
	// Command lines from the session conformance repertoire, valid and not;
	// FROM and LIVE, the retired first dialect, are among the nots.
	for _, line := range []string{
		"HELLO acme", "hello Tenant-1", "HELLO", "HELLO a b",
		"SUBSCRIBE", "subscribe from 42", "SUBSCRIBE FROM 0",
		"SUBSCRIBE FROM -1", "SUBSCRIBE FROM x", "SUBSCRIBE NOW",
		"UNSUBSCRIBE", "UNSUBSCRIBE hard",
		"FROM 7", "FROM -3", "FROM", "FROM 9999999999999999999",
		"LIVE", "", "   ", "BOGUS x y",
	} {
		f.Add([]byte(line))
	}
	// Frame lines: one of each kind, then structural near-misses.
	ts := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	for _, fr := range []*Frame{
		{Kind: FrameWelcome, Session: "s1", Tenant: "public", Head: 10},
		{Kind: FrameSubscribed, From: 3, Head: 10},
		{Kind: FrameData, Entries: []Entry{{Offset: 3, Time: ts, Domain: "a.com", Raw: "a.com. NS ns1"}}, Next: 4},
		{Kind: FrameHeartbeat, Seq: 2, Head: 11},
		{Kind: FrameGap, Gap: &Gap{From: 4, To: 9, Dropped: 6, Reason: "slow_consumer"}},
		{Kind: FrameBye, Code: "shutdown", Reason: "server closing"},
		{Kind: FrameError, Code: CodeBadCommand, Reason: "unknown command X"},
	} {
		b, err := encodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"frame":""}`))
	f.Add([]byte(`{"offset":1,"domain":"legacy.com"}`))
	f.Add([]byte(`{"frame":"data","entries":[{"offset":1,"time":"bad"}]}`))
	// DATA lines in the server's own byte shape, which the fast decoder
	// takes, and lines one step off it, which it must leave to the fallback.
	for _, line := range canonicalFrames(f) {
		f.Add(line)
	}
	for _, line := range nearMisses() {
		f.Add(line)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Command direction.
		cmd, perr := parseCommand(string(data))
		if perr == nil {
			line := encodeCommand(cmd)
			re, rerr := parseCommand(line)
			if rerr != nil {
				t.Fatalf("re-encoded command %q rejected: %v", line, rerr)
			}
			if re != cmd {
				t.Fatalf("round trip drifted: %+v → %q → %+v", cmd, line, re)
			}
		} else if perr.code == "" || perr.msg == "" {
			t.Fatalf("rejection without structured code/message: %+v", perr)
		}

		// Frame direction. Compare re-encoded bytes, not structs: a Frame
		// holds time.Time values whose wall/monotonic representation is
		// not DeepEqual-stable, but their JSON rendering is.
		checkDecodeAgrees(t, data)
		fr, err := decodeFrame(data, nil)
		if err != nil {
			return
		}
		if fr.Kind == "" {
			t.Fatalf("decodeFrame accepted a frame without kind: %q", data)
		}
		b1, err := encodeFrame(fr)
		if err != nil {
			// A decoded frame can hold a value Go's encoder refuses (e.g.
			// a string that arrived via a surrogate escape); that is a
			// reject, not a drift.
			return
		}
		fr2, err := decodeFrame(b1, nil)
		if err != nil {
			t.Fatalf("encoded frame does not decode: %v\n%s", err, b1)
		}
		b2, err := encodeFrame(fr2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("frame round trip drifted:\n%s\n%s", b1, b2)
		}
	})
}
