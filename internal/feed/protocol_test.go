package feed

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// TestParseCommandGrammar is the command-grammar conformance table: every
// accepted spelling and every rejection with its structured error code.
func TestParseCommandGrammar(t *testing.T) {
	cases := []struct {
		line string
		verb string // "" means rejected
		from int64
		code string
	}{
		{line: "HELLO acme", verb: "HELLO"},
		{line: "hello acme", verb: "HELLO"}, // verbs are case-insensitive
		{line: "SUBSCRIBE", verb: "SUBSCRIBE", from: -1},
		{line: "SUBSCRIBE FROM 42", verb: "SUBSCRIBE", from: 42},
		{line: "subscribe from 0", verb: "SUBSCRIBE", from: 0},
		{line: "UNSUBSCRIBE", verb: "UNSUBSCRIBE", from: -1},

		{line: "", code: CodeBadCommand},
		{line: "   ", code: CodeBadCommand},
		{line: "GIMME everything", code: CodeBadCommand},
		{line: "HELLO", code: CodeBadCommand},
		{line: "HELLO a b", code: CodeBadCommand},
		{line: "SUBSCRIBE FROM", code: CodeBadCommand},
		{line: "SUBSCRIBE FROM x", code: CodeBadOffset},
		{line: "SUBSCRIBE FROM -3", code: CodeBadOffset},
		{line: "SUBSCRIBE AT 3", code: CodeBadCommand},
		{line: "UNSUBSCRIBE now", code: CodeBadCommand},
		// The first wire dialect's verbs are unknown commands like any other.
		{line: "FROM 7", code: CodeBadCommand},
		{line: "LIVE", code: CodeBadCommand},
	}
	for _, tc := range cases {
		cmd, perr := parseCommand(tc.line)
		if tc.verb == "" {
			if perr == nil {
				t.Errorf("parse(%q) accepted as %+v, want rejection %s", tc.line, cmd, tc.code)
			} else if perr.code != tc.code {
				t.Errorf("parse(%q) code = %s, want %s", tc.line, perr.code, tc.code)
			}
			continue
		}
		if perr != nil {
			t.Errorf("parse(%q) rejected with %s, want %s", tc.line, perr.code, tc.verb)
			continue
		}
		if cmd.verb != tc.verb || cmd.from != tc.from {
			t.Errorf("parse(%q) = %+v, want verb %s from %d", tc.line, cmd, tc.verb, tc.from)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	in := &Frame{
		Kind:    FrameData,
		Entries: []Entry{{Offset: 3, Time: t0, Domain: "a.com", Raw: "{}"}},
		Next:    4,
	}
	line, err := encodeFrame(in)
	if err != nil {
		t.Fatal(err)
	}
	if line[len(line)-1] != '\n' {
		t.Fatal("frame line not newline-terminated")
	}
	out, err := decodeFrame(line[:len(line)-1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != FrameData || len(out.Entries) != 1 || out.Entries[0].Domain != "a.com" || out.Next != 4 {
		t.Errorf("round trip = %+v", out)
	}
}

func TestDecodeFrameRejectsGarbage(t *testing.T) {
	if _, err := decodeFrame([]byte("not json"), nil); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := decodeFrame([]byte(`{"offset":3}`), nil); err == nil {
		t.Error("kindless frame accepted")
	}
}

// readFrameLine reads one non-empty line from a raw test connection and
// decodes it as a frame.
func readFrameLine(t *testing.T, r *bufio.Reader) *Frame {
	t.Helper()
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		line = line[:len(line)-1]
		if len(line) == 0 {
			continue
		}
		f, err := decodeFrame(line, nil)
		if err != nil {
			t.Fatalf("decode %q: %v", line, err)
		}
		return f
	}
}

// rawSession dials the server and returns the conn plus a buffered
// reader, with a test-scoped deadline so a protocol bug cannot hang the
// suite.
func rawSession(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn, bufio.NewReader(conn)
}

// TestBadFramesRejectedWithStructuredErrors drives the wire directly:
// malformed session commands must answer with error frames carrying the
// documented codes, and the session must survive recoverable ones.
func TestBadFramesRejectedWithStructuredErrors(t *testing.T) {
	_, addr, stop := startFeed(t)
	defer stop()
	conn, r := rawSession(t, addr)

	// Also as a connection's first line, and the session stays open.
	fmt.Fprintf(conn, "FROM 0\n")
	if f := readFrameLine(t, r); f.Kind != FrameError || f.Code != CodeBadCommand {
		t.Fatalf("first-line FROM answered %+v", f)
	}
	fmt.Fprintf(conn, "HELLO too many words\n")
	if f := readFrameLine(t, r); f.Kind != FrameError || f.Code != CodeBadCommand {
		t.Fatalf("bad HELLO answered %+v", f)
	}
	fmt.Fprintf(conn, "SUBSCRIBE FROM minus-one\n")
	if f := readFrameLine(t, r); f.Kind != FrameError || f.Code != CodeBadOffset {
		t.Fatalf("bad offset answered %+v", f)
	}
	fmt.Fprintf(conn, "UNSUBSCRIBE\n")
	if f := readFrameLine(t, r); f.Kind != FrameError || f.Code != CodeNotSubscribed {
		t.Fatalf("unsubscribe without subscription answered %+v", f)
	}
	// The session is still usable after recoverable errors.
	fmt.Fprintf(conn, "HELLO acme\n")
	f := readFrameLine(t, r)
	if f.Kind != FrameWelcome || f.Tenant != "acme" || !strings.HasPrefix(f.Session, "s") {
		t.Fatalf("welcome = %+v", f)
	}
	fmt.Fprintf(conn, "SUBSCRIBE\n")
	if f := readFrameLine(t, r); f.Kind != FrameSubscribed {
		t.Fatalf("subscribed = %+v", f)
	}
	fmt.Fprintf(conn, "SUBSCRIBE\n")
	if f := readFrameLine(t, r); f.Kind != FrameError || f.Code != CodeAlreadySubscribed {
		t.Fatalf("double subscribe answered %+v", f)
	}
	fmt.Fprintf(conn, "HELLO other\n")
	if f := readFrameLine(t, r); f.Kind != FrameError || f.Code != CodeHelloAfterSub {
		t.Fatalf("late HELLO answered %+v", f)
	}
	fmt.Fprintf(conn, "LIVE\n")
	if f := readFrameLine(t, r); f.Kind != FrameError || f.Code != CodeBadCommand {
		t.Fatalf("mid-session LIVE answered %+v", f)
	}
}

// TestSessionLifecycleFrames walks the happy path: HELLO → SUBSCRIBE →
// DATA → UNSUBSCRIBE (bye) → SUBSCRIBE again.
func TestSessionLifecycleFrames(t *testing.T) {
	topic, addr, stop := startFeed(t)
	defer stop()
	for i := 0; i < 3; i++ {
		topic.Publish(t0, fmt.Sprintf("d%d.com", i), []byte("{}"))
	}
	conn, r := rawSession(t, addr)

	fmt.Fprintf(conn, "HELLO acme\nSUBSCRIBE FROM 0\n")
	if f := readFrameLine(t, r); f.Kind != FrameWelcome || f.Head != 3 {
		t.Fatalf("welcome = %+v", f)
	}
	if f := readFrameLine(t, r); f.Kind != FrameSubscribed || f.Head != 3 {
		t.Fatalf("subscribed = %+v", f)
	}
	var got []Entry
	for len(got) < 3 {
		f := readFrameLine(t, r)
		switch f.Kind {
		case FrameData:
			got = append(got, f.Entries...)
		case FrameHeartbeat:
		default:
			t.Fatalf("unexpected frame %+v", f)
		}
	}
	if got[0].Domain != "d0.com" || got[2].Offset != 2 {
		t.Fatalf("replayed %+v", got)
	}
	fmt.Fprintf(conn, "UNSUBSCRIBE\n")
	for {
		f := readFrameLine(t, r)
		if f.Kind == FrameHeartbeat {
			continue
		}
		if f.Kind != FrameBye || f.Reason != "unsubscribe" {
			t.Fatalf("after UNSUBSCRIBE got %+v", f)
		}
		break
	}
	fmt.Fprintf(conn, "SUBSCRIBE FROM 1\n")
	if f := readFrameLine(t, r); f.Kind != FrameSubscribed || f.From != 1 {
		t.Fatalf("resubscribe = %+v", f)
	}
	if f := readFrameLine(t, r); f.Kind != FrameData || f.Entries[0].Offset != 1 {
		t.Fatalf("resubscribed data = %+v", f)
	}
}

// TestHeartbeatsAreSequenced asserts idle sessions receive hb frames with
// increasing sequence numbers and the current head.
func TestHeartbeatsAreSequenced(t *testing.T) {
	topic, addr, stop := startFeedConfig(t, ServerConfig{Heartbeat: 30 * time.Millisecond})
	defer stop()
	topic.Publish(t0, "a.com", nil)
	conn, r := rawSession(t, addr)
	fmt.Fprintf(conn, "SUBSCRIBE\n")
	if f := readFrameLine(t, r); f.Kind != FrameSubscribed {
		t.Fatalf("subscribed = %+v", f)
	}
	var seqs []int64
	for len(seqs) < 3 {
		f := readFrameLine(t, r)
		if f.Kind != FrameHeartbeat {
			t.Fatalf("unexpected frame %+v", f)
		}
		if f.Head != 1 {
			t.Errorf("hb head = %d, want 1", f.Head)
		}
		seqs = append(seqs, f.Seq)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("heartbeat seqs not consecutive: %v", seqs)
		}
	}
}
