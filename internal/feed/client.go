package feed

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// Client consumes a feed server over the framed session protocol.
type Client struct {
	addr string
}

// NewClient creates a client for the feed at addr.
func NewClient(addr string) *Client { return &Client{addr: addr} }

// ErrStopped is returned when the context ends the stream.
var ErrStopped = errors.New("feed: stopped")

// ErrResumeExhausted terminates a subscription after MaxResumeAttempts
// consecutive failed reconnects.
var ErrResumeExhausted = errors.New("feed: resume attempts exhausted")

// SubscribeOptions parameterizes one subscription.
type SubscribeOptions struct {
	// Tenant names the session's tenant (HELLO); empty skips HELLO and
	// lands in the server's default tenant.
	Tenant string
	// From is the replay start offset; negative tails live from the
	// head.
	From int64
	// AutoResume reconnects after a connection failure and resumes from
	// the offset after the last delivered entry (or gap), with bounded
	// exponential backoff. Protocol errors from the server never resume.
	AutoResume bool
	// ResumeBackoff is the initial reconnect delay (default 100ms),
	// doubling up to ResumeBackoffMax (default 5s) and resetting after a
	// successful frame.
	ResumeBackoff    time.Duration
	ResumeBackoffMax time.Duration
	// MaxResumeAttempts bounds consecutive failed reconnects before the
	// subscription ends with ErrResumeExhausted (default 8; values < 0
	// retry forever).
	MaxResumeAttempts int
	// Buffer is the event channel's capacity (default 256).
	Buffer int
}

// EventKind discriminates subscription events.
type EventKind int

const (
	// EventEntry carries one feed entry.
	EventEntry EventKind = iota
	// EventGap reports a server-side hole (shed or encode loss).
	EventGap
	// EventResumed reports a successful auto-resume reconnect; From is
	// the offset the stream continued at.
	EventResumed
)

// Event is one item delivered on Subscription.C.
type Event struct {
	Kind  EventKind
	Entry Entry
	Gap   Gap
	From  int64 // EventResumed
}

// Subscription is a live feed consumption. Read events from C until it
// closes, then inspect Err.
type Subscription struct {
	// C delivers entries, gaps, and resume notices in order.
	C <-chan Event

	cancel context.CancelFunc
	err    atomic.Pointer[error]
	last   atomic.Int64 // next offset to resume from
}

// Err reports why C closed: nil after a clean server bye, ErrStopped
// after context cancellation, or the terminal failure.
func (s *Subscription) Err() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

// NextOffset is the offset delivery would continue at — the resume point
// after the last delivered entry or gap.
func (s *Subscription) NextOffset() int64 { return s.last.Load() }

// Close tears the subscription down; C closes shortly after.
func (s *Subscription) Close() { s.cancel() }

func (s *Subscription) setErr(err error) {
	if err != nil {
		s.err.CompareAndSwap(nil, &err)
	}
}

// Subscribe opens a session, subscribes, and streams events on the
// returned Subscription's channel. The initial dial and handshake are
// synchronous so configuration errors surface immediately; delivery then
// continues on a background goroutine until ctx ends, the server says
// bye, or an unrecoverable error occurs.
func (c *Client) Subscribe(ctx context.Context, opts SubscribeOptions) (*Subscription, error) {
	if opts.ResumeBackoff <= 0 {
		opts.ResumeBackoff = 100 * time.Millisecond
	}
	if opts.ResumeBackoffMax <= 0 {
		opts.ResumeBackoffMax = 5 * time.Second
	}
	if opts.MaxResumeAttempts == 0 {
		opts.MaxResumeAttempts = 8
	}
	if opts.Buffer <= 0 {
		opts.Buffer = 256
	}
	ctx, cancel := context.WithCancel(ctx)
	ch := make(chan Event, opts.Buffer)
	sub := &Subscription{C: ch, cancel: cancel}
	sub.last.Store(opts.From)

	conn, err := c.handshake(ctx, opts, opts.From)
	if err != nil {
		cancel()
		return nil, err
	}
	go c.run(ctx, conn, opts, sub, ch)
	return sub, nil
}

// handshake dials and completes HELLO/SUBSCRIBE, returning the connected
// session ready for delivery frames. When ctx ends first it closes the
// connection, failing the read in progress, and returns an error wrapping
// ctx.Err().
func (c *Client) handshake(ctx context.Context, opts SubscribeOptions, from int64) (_ *subConn, err error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer func() {
		if !stop() {
			err = fmt.Errorf("feed: handshake: %w", ctx.Err())
		}
		if err != nil {
			conn.Close()
		}
	}()
	sc := &subConn{conn: conn, r: bufio.NewScanner(conn)}
	sc.r.Buffer(make([]byte, 0, 64<<10), 8<<20)
	if opts.Tenant != "" {
		if _, err := fmt.Fprintf(conn, "HELLO %s\n", opts.Tenant); err != nil {
			return nil, err
		}
		f, err := sc.readFrame()
		if err != nil {
			return nil, err
		}
		if f.Kind == FrameError {
			return nil, fmt.Errorf("feed: %s: %s", f.Code, f.Reason)
		}
		if f.Kind != FrameWelcome {
			return nil, fmt.Errorf("feed: expected welcome, got %s", f.Kind)
		}
	}
	if from < 0 {
		_, err = fmt.Fprintf(conn, "SUBSCRIBE\n")
	} else {
		_, err = fmt.Fprintf(conn, "SUBSCRIBE FROM %d\n", from)
	}
	if err != nil {
		return nil, err
	}
	f, err := sc.readFrame()
	if err != nil {
		return nil, err
	}
	if f.Kind == FrameError {
		return nil, fmt.Errorf("feed: %s: %s", f.Code, f.Reason)
	}
	if f.Kind != FrameSubscribed {
		return nil, fmt.Errorf("feed: expected subscribed, got %s", f.Kind)
	}
	return sc, nil
}

// subConn is one connected session on the client side.
type subConn struct {
	conn net.Conn
	r    *bufio.Scanner
	// data is the DATA frame last read, its Entries array reused from
	// frame to frame.
	data Frame
}

// readFrame reads the next non-empty line as a frame. A canonical DATA
// line is decoded into the frame the connection owns, so the frame and
// its Entries are valid until the next call: run copies each entry into
// its Event before reading on. Any other line takes decodeFrame.
func (sc *subConn) readFrame() (*Frame, error) {
	for sc.r.Scan() {
		line := sc.r.Bytes()
		if len(line) == 0 {
			continue
		}
		if entries, next, ok := decodeDataFrame(line, sc.data.Entries[:0]); ok {
			sc.data = Frame{Kind: FrameData, Entries: entries, Next: next}
			return &sc.data, nil
		}
		return decodeFrame(line, nil)
	}
	if err := sc.r.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("feed: connection closed")
}

// run is the delivery loop with auto-resume.
func (c *Client) run(ctx context.Context, sc *subConn, opts SubscribeOptions, sub *Subscription, ch chan<- Event) {
	defer close(ch)
	defer sub.cancel()

	// Unblock reads when ctx ends: close whichever connection is current
	// (resume swaps it via the pointer).
	var cur atomic.Pointer[subConn]
	cur.Store(sc)
	stop := context.AfterFunc(ctx, func() {
		if c := cur.Load(); c != nil {
			c.conn.Close()
		}
	})
	defer stop()

	backoff := opts.ResumeBackoff
	attempts := 0
	// emit tries the send alone first, so an event that finds room in C
	// costs one channel lock; only a full C waits on ctx as well. That
	// send does not look at ctx, so the loop checks it once per frame.
	emit := func(ev Event) bool {
		select {
		case ch <- ev:
			return true
		default:
		}
		select {
		case ch <- ev:
			return true
		case <-ctx.Done():
			return false
		}
	}
	// deliver moves the resume point to next before the event is sent, so
	// a consumer that has received it never reads an older NextOffset;
	// when the send fails the subscription stops and the point goes back.
	deliver := func(ev Event, next int64) bool {
		prev := sub.last.Swap(next)
		if emit(ev) {
			return true
		}
		sub.last.Store(prev)
		sub.setErr(ErrStopped)
		sc.conn.Close()
		return false
	}
	for {
		f, err := sc.readFrame()
		if err != nil {
			sc.conn.Close()
			if ctx.Err() != nil {
				sub.setErr(ErrStopped)
				return
			}
			if !opts.AutoResume {
				sub.setErr(err)
				return
			}
			// Bounded-backoff resume from the last delivered offset.
			for {
				attempts++
				if opts.MaxResumeAttempts > 0 && attempts > opts.MaxResumeAttempts {
					sub.setErr(ErrResumeExhausted)
					return
				}
				select {
				case <-ctx.Done():
					sub.setErr(ErrStopped)
					return
				case <-time.After(backoff):
				}
				if backoff *= 2; backoff > opts.ResumeBackoffMax {
					backoff = opts.ResumeBackoffMax
				}
				next, derr := c.handshake(ctx, opts, sub.last.Load())
				if derr == nil {
					sc = next
					cur.Store(sc)
					if ctx.Err() != nil {
						sc.conn.Close()
						sub.setErr(ErrStopped)
						return
					}
					if !emit(Event{Kind: EventResumed, From: sub.last.Load()}) {
						sub.setErr(ErrStopped)
						sc.conn.Close()
						return
					}
					break
				}
				if ctx.Err() != nil {
					sub.setErr(ErrStopped)
					return
				}
			}
			continue
		}
		attempts = 0
		backoff = opts.ResumeBackoff
		// After Close, at most the rest of the frame being delivered gets
		// through, not every frame already buffered in the scanner.
		if ctx.Err() != nil {
			sc.conn.Close()
			sub.setErr(ErrStopped)
			return
		}
		switch f.Kind {
		case FrameData:
			for _, e := range f.Entries {
				if !deliver(Event{Kind: EventEntry, Entry: e}, e.Offset+1) {
					return
				}
			}
		case FrameGap:
			if f.Gap != nil && !deliver(Event{Kind: EventGap, Gap: *f.Gap}, max(f.Gap.To+1, sub.last.Load())) {
				return
			}
		case FrameHeartbeat:
			// Liveness only.
		case FrameBye:
			sc.conn.Close()
			if f.Reason == "shutdown" && opts.AutoResume {
				// Treat a server shutdown like a dropped connection so
				// rolling restarts resume transparently.
				continue
			}
			return
		case FrameError:
			sc.conn.Close()
			sub.setErr(fmt.Errorf("feed: %s: %s", f.Code, f.Reason))
			return
		}
	}
}
