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
// session ready for delivery frames.
func (c *Client) handshake(ctx context.Context, opts SubscribeOptions, from int64) (*subConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	sc := &subConn{conn: conn, r: bufio.NewScanner(conn)}
	sc.r.Buffer(make([]byte, 0, 64<<10), 8<<20)
	if opts.Tenant != "" {
		if _, err := fmt.Fprintf(conn, "HELLO %s\n", opts.Tenant); err != nil {
			conn.Close()
			return nil, err
		}
		f, err := sc.readFrame()
		if err != nil {
			conn.Close()
			return nil, err
		}
		if f.Kind == FrameError {
			conn.Close()
			return nil, fmt.Errorf("feed: %s: %s", f.Code, f.Reason)
		}
		if f.Kind != FrameWelcome {
			conn.Close()
			return nil, fmt.Errorf("feed: expected welcome, got %s", f.Kind)
		}
	}
	if from < 0 {
		_, err = fmt.Fprintf(conn, "SUBSCRIBE\n")
	} else {
		_, err = fmt.Fprintf(conn, "SUBSCRIBE FROM %d\n", from)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	f, err := sc.readFrame()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if f.Kind == FrameError {
		conn.Close()
		return nil, fmt.Errorf("feed: %s: %s", f.Code, f.Reason)
	}
	if f.Kind != FrameSubscribed {
		conn.Close()
		return nil, fmt.Errorf("feed: expected subscribed, got %s", f.Kind)
	}
	return sc, nil
}

// subConn is one connected session on the client side.
type subConn struct {
	conn net.Conn
	r    *bufio.Scanner
	// entries backs the Entries of the DATA frame last read.
	entries []Entry
}

// readFrame reads the next non-empty line as a frame. A DATA frame's
// Entries are valid until the next call: run copies each one into its
// Event before reading on.
func (sc *subConn) readFrame() (*Frame, error) {
	for sc.r.Scan() {
		line := sc.r.Bytes()
		if len(line) == 0 {
			continue
		}
		f, err := decodeFrame(line, sc.entries[:0])
		if err == nil && f.Kind == FrameData {
			sc.entries = f.Entries
		}
		return f, err
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
	emit := func(ev Event) bool {
		select {
		case ch <- ev:
			return true
		case <-ctx.Done():
			return false
		}
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
		switch f.Kind {
		case FrameData:
			for _, e := range f.Entries {
				if !emit(Event{Kind: EventEntry, Entry: e}) {
					sub.setErr(ErrStopped)
					sc.conn.Close()
					return
				}
				sub.last.Store(e.Offset + 1)
			}
		case FrameGap:
			if f.Gap != nil {
				if !emit(Event{Kind: EventGap, Gap: *f.Gap}) {
					sub.setErr(ErrStopped)
					sc.conn.Close()
					return
				}
				if f.Gap.To+1 > sub.last.Load() {
					sub.last.Store(f.Gap.To + 1)
				}
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
