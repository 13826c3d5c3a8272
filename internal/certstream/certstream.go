// Package certstream implements a Certstream-style firehose of newly
// logged certificates: an in-process fan-out hub fed by CT log
// subscriptions, a TCP server broadcasting entries as JSON lines, and a
// reconnecting client. DarkDNS step 1 consumes this feed.
package certstream

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"darkdns/internal/ct"
)

// Event is one feed message: the CT entry plus the feed-observed
// timestamp (the paper uses the Certstream-reported timestamp because CT
// logs expose no insertion time).
type Event struct {
	Seen  time.Time `json:"seen"`
	Log   string    `json:"log"`
	Entry ct.Entry  `json:"entry"`
}

// hubSub is one registered subscriber.
type hubSub struct {
	id int64
	fn func(Event)
}

// Hub fans CT log entries out to subscribers. It is the in-process feed
// used by the simulation; Server wraps it for network delivery.
//
// The subscriber list is copy-on-write: Subscribe and unsubscribe (rare)
// rebuild it under mu, while publish (the per-certificate hot path) loads
// it atomically — no lock is held during subscriber callbacks and fan-out
// allocates nothing, so one slow subscriber never serializes the others'
// registration and parallel feeders never contend.
type Hub struct {
	mu     sync.Mutex
	subs   atomic.Pointer[[]hubSub]
	nextID int64
	// PrecertOnly drops final-certificate entries, matching the paper's
	// methodology (footnote 1).
	PrecertOnly bool
}

// NewHub creates a hub that forwards precertificate entries only.
func NewHub() *Hub {
	return &Hub{PrecertOnly: true}
}

// Attach subscribes the hub to a CT log. now supplies feed-observation
// timestamps (pass the simulation clock's Now).
func (h *Hub) Attach(log *ct.Log, now func() time.Time) {
	log.Subscribe(func(e ct.Entry) {
		if h.PrecertOnly && e.Kind != ct.PreCertificate {
			return
		}
		h.publish(Event{Seen: now(), Log: log.Name(), Entry: e})
	})
}

// Poll tails a remote CT log's RFC 6962 HTTP API from index start,
// publishing each new entry into the hub — how real Certstream
// aggregators consume logs. It blocks until ctx is done and returns the
// next unread index.
func (h *Hub) Poll(ctx context.Context, logName string, client *ct.Client, start int64, pollEvery time.Duration) (int64, error) {
	return client.Tail(ctx, start, pollEvery, func(e ct.Entry) {
		if h.PrecertOnly && e.Kind != ct.PreCertificate {
			return
		}
		h.publish(Event{Seen: time.Now(), Log: logName, Entry: e})
	})
}

// publish delivers ev to all subscribers synchronously, without holding
// the hub lock during callbacks.
func (h *Hub) publish(ev Event) {
	if subs := h.subs.Load(); subs != nil {
		for _, s := range *subs {
			s.fn(ev)
		}
	}
}

// Subscribe registers fn and returns an unsubscribe handle.
func (h *Hub) Subscribe(fn func(Event)) (cancel func()) {
	h.mu.Lock()
	id := h.nextID
	h.nextID++
	var cur []hubSub
	if p := h.subs.Load(); p != nil {
		cur = *p
	}
	next := make([]hubSub, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = hubSub{id: id, fn: fn}
	h.subs.Store(&next)
	h.mu.Unlock()
	return func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		p := h.subs.Load()
		if p == nil {
			return
		}
		next := make([]hubSub, 0, len(*p))
		for _, s := range *p {
			if s.id != id {
				next = append(next, s)
			}
		}
		h.subs.Store(&next)
	}
}

// Server broadcasts hub events to TCP clients as newline-delimited JSON.
type Server struct {
	hub *Hub

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]chan []byte
	closed  bool
	unsub   func()
	dropped int64
}

// NewServer creates a server over hub.
func NewServer(hub *Hub) *Server {
	return &Server{hub: hub, conns: make(map[net.Conn]chan []byte)}
}

// Serve listens on addr ("127.0.0.1:0" for tests) and serves until Close.
// It returns the bound address on the returned channel once listening.
func (s *Server) Serve(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.unsub = s.hub.Subscribe(s.broadcast)
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		ch := make(chan []byte, 1024)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = ch
		s.mu.Unlock()
		go s.writeLoop(conn, ch)
	}
}

func (s *Server) writeLoop(conn net.Conn, ch chan []byte) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	w := bufio.NewWriter(conn)
	for line := range ch {
		if _, err := w.Write(line); err != nil {
			return
		}
		if len(ch) == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// broadcast fans one event out to every connected client. Slow clients
// drop events rather than blocking the feed (matching Certstream's
// best-effort delivery).
func (s *Server) broadcast(ev Event) {
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ch := range s.conns {
		select {
		case ch <- line:
		default:
			s.dropped++
		}
	}
}

// Dropped returns the number of events dropped due to slow clients.
func (s *Server) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close stops the listener and disconnects clients.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.unsub != nil {
		s.unsub()
	}
	ln := s.ln
	for conn, ch := range s.conns {
		close(ch)
		_ = conn
	}
	s.conns = map[net.Conn]chan []byte{}
	s.mu.Unlock()
	if ln != nil {
		return ln.Close()
	}
	return nil
}

// Client consumes a server's feed with automatic reconnection.
type Client struct {
	addr    string
	backoff time.Duration
}

// NewClient creates a client for the feed at addr.
func NewClient(addr string) *Client {
	return &Client{addr: addr, backoff: 250 * time.Millisecond}
}

// ErrStopped is returned by Run when the context is cancelled.
var ErrStopped = errors.New("certstream: client stopped")

// Run connects and delivers events to fn until ctx is cancelled,
// reconnecting with backoff on errors.
func (c *Client) Run(ctx context.Context, fn func(Event)) error {
	for {
		if err := c.runOnce(ctx, fn); err != nil && ctx.Err() != nil {
			return ErrStopped
		}
		select {
		case <-ctx.Done():
			return ErrStopped
		case <-time.After(c.backoff):
		}
	}
}

func (c *Client) runOnce(ctx context.Context, fn func(Event)) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	go func() {
		<-ctx.Done()
		conn.Close()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("certstream: bad event: %w", err)
		}
		fn(ev)
	}
	return sc.Err()
}
