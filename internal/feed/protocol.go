package feed

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Wire grammar. Commands travel client→server as single text lines so a
// session remains drivable from nc; frames travel server→client as JSON
// lines discriminated by a "frame" key. Batch DATA frames amortize the
// encode/write cost over many entries — the req/res→pub/sub shift the
// MoQT-for-DNS work motivates (PAPERS.md).
//
// Commands:
//
//	HELLO <tenant>            bind the session to a tenant (optional;
//	                          default tenant is "public")
//	SUBSCRIBE [FROM <n>]      start delivery; FROM replays from offset n,
//	                          bare SUBSCRIBE tails live from the head
//	UNSUBSCRIBE               stop delivery; the session stays open for a
//	                          later SUBSCRIBE
//
// Frames: welcome, subscribed, data, hb, gap, bye, error (see the frame
// structs below). DATA frames have their own codec (wire.go); its bytes
// are the ones encodeFrame and decodeFrame below define.

// Frame discriminator values.
const (
	FrameWelcome    = "welcome"
	FrameSubscribed = "subscribed"
	FrameData       = "data"
	FrameHeartbeat  = "hb"
	FrameGap        = "gap"
	FrameBye        = "bye"
	FrameError      = "error"
)

// Structured protocol error codes carried by error frames.
const (
	CodeBadCommand        = "bad_command"
	CodeBadOffset         = "bad_offset"
	CodeAlreadySubscribed = "already_subscribed"
	CodeNotSubscribed     = "not_subscribed"
	CodeHelloAfterSub     = "hello_after_subscribe"
	CodeTenantLimit       = "tenant_limit"
	CodeSlowConsumer      = "slow_consumer"
	CodeShutdown          = "shutdown"
)

// Frame is the decoded union of every server→client frame. Kind selects
// which fields are meaningful; Entries aliases the data payload without a
// second allocation.
type Frame struct {
	Kind string `json:"frame"`

	// welcome
	Session string `json:"session,omitempty"`
	Tenant  string `json:"tenant,omitempty"`

	// welcome, subscribed, hb: head is the topic length at send time.
	Head int64 `json:"head,omitempty"`

	// subscribed
	From int64 `json:"from,omitempty"`

	// data
	Entries []Entry `json:"entries,omitempty"`
	// Next is the offset delivery continues at after this frame — the
	// resume point a client persists.
	Next int64 `json:"next,omitempty"`

	// hb: sequence number, monotonically increasing per session.
	Seq int64 `json:"seq,omitempty"`

	// gap
	Gap *Gap `json:"gap,omitempty"`

	// bye, error
	Code   string `json:"code,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// encodeFrame renders a frame as one newline-terminated JSON line.
func encodeFrame(f *Frame) ([]byte, error) {
	b, err := json.Marshal(f)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// decodeFrame parses one server→client line. A DATA frame in the server's
// canonical byte shape is decoded by the wire codec, its Entries appended
// to buf and valid until the caller reuses buf (nil: the frame owns
// them). Every other line takes the reflective decoder, so what a line
// decodes to, and whether it is an error, is json.Unmarshal's answer
// either way.
func decodeFrame(line []byte, buf []Entry) (*Frame, error) {
	if entries, next, ok := decodeDataFrame(line, buf); ok {
		return &Frame{Kind: FrameData, Entries: entries, Next: next}, nil
	}
	var f Frame
	if err := json.Unmarshal(line, &f); err != nil {
		return nil, fmt.Errorf("feed: bad frame: %w", err)
	}
	if f.Kind == "" {
		return nil, fmt.Errorf("feed: frame without kind: %q", line)
	}
	return &f, nil
}

// command is one parsed client→server line.
type command struct {
	verb   string // HELLO, SUBSCRIBE, UNSUBSCRIBE
	tenant string // HELLO
	from   int64  // SUBSCRIBE FROM; -1 means live tail
}

// protoError is a protocol violation answered with a structured error
// frame; code is one of the Code* constants.
type protoError struct {
	code string
	msg  string
}

func (e *protoError) Error() string { return fmt.Sprintf("feed: %s: %s", e.code, e.msg) }

// parseCommand parses one client line into a command.
func parseCommand(line string) (command, *protoError) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return command{}, &protoError{CodeBadCommand, "empty command"}
	}
	verb := strings.ToUpper(fields[0])
	switch verb {
	case "HELLO":
		if len(fields) != 2 {
			return command{}, &protoError{CodeBadCommand, "HELLO takes exactly one tenant name"}
		}
		return command{verb: verb, tenant: fields[1]}, nil
	case "SUBSCRIBE":
		c := command{verb: verb, from: -1}
		switch {
		case len(fields) == 1:
			return c, nil
		case len(fields) == 3 && strings.ToUpper(fields[1]) == "FROM":
			v, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || v < 0 {
				return command{}, &protoError{CodeBadOffset, "SUBSCRIBE FROM needs a non-negative integer offset"}
			}
			c.from = v
			return c, nil
		default:
			return command{}, &protoError{CodeBadCommand, "usage: SUBSCRIBE [FROM <offset>]"}
		}
	case "UNSUBSCRIBE":
		if len(fields) != 1 {
			return command{}, &protoError{CodeBadCommand, "UNSUBSCRIBE takes no arguments"}
		}
		return command{verb: verb, from: -1}, nil
	default:
		return command{}, &protoError{CodeBadCommand, "unknown command " + verb}
	}
}
