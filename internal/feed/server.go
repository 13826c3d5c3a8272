package feed

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"darkdns/internal/stream"
)

// DefaultTenant is the tenant a session belongs to until it sends HELLO.
const DefaultTenant = "public"

// ErrServerClosed terminates subscriber queues when the server shuts
// down.
var ErrServerClosed = errors.New("feed: server closed")

// pumpNonce makes fan-out consumer-group names unique across servers
// sharing one topic.
var pumpNonce atomic.Uint64

// ServerConfig parameterizes the fan-out tier.
type ServerConfig struct {
	// QueueBound caps each subscriber's live-delivery queue (entries).
	QueueBound int
	// ShedPolicy selects what happens on queue overflow.
	ShedPolicy ShedPolicy
	// Heartbeat is the idle interval between hb frames.
	Heartbeat time.Duration
	// BatchMax bounds entries per DATA frame and per catch-up log read.
	BatchMax int
	// WriteTimeout is the per-frame write deadline; a peer that cannot
	// drain one frame within it is disconnected.
	WriteTimeout time.Duration
	// TenantMaxSubscribers caps concurrent subscriptions per tenant
	// (0 = unlimited).
	TenantMaxSubscribers int
	// TenantRate throttles delivered entries/s per tenant (0 =
	// unlimited). A throttled writer falls behind and the shed policy
	// takes over, so rate-limited tenants degrade like slow consumers.
	TenantRate float64
}

// DefaultServerConfig returns the production defaults.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		QueueBound:   1024,
		ShedPolicy:   ShedDropOldest,
		Heartbeat:    time.Second,
		BatchMax:     256,
		WriteTimeout: 5 * time.Second,
	}
}

// FanoutStats is the tier's counter surface: delivery, queueing and
// shedding totals plus the live registry shape.
type FanoutStats struct {
	Subscribers int // live subscriptions right now
	Tenants     int // tenants ever seen
	QueueDepth  int // entries queued across all subscribers, right now
	MaxDepth    int // deepest per-subscriber backlog observed

	Sessions    int64 // connections ever accepted
	Delivered   int64 // entries sent in DATA frames
	Batches     int64 // DATA frames sent
	BytesOut    int64 // payload bytes written
	Heartbeats  int64 // hb frames sent
	Shed        int64 // entries evicted by drop-oldest shedding
	Gaps        int64 // GAP frames emitted
	EncodeDrops int64 // entries lost to encoding failures (gap-marked)
	// EncodeCacheHits counts the delivered entries whose bytes were the
	// pump's shared encoding — every live delivery, no replayed one (a
	// replaying session encodes its own log reads).
	EncodeCacheHits int64
	Disconnects     int64 // subscribers cut by the disconnect shed policy
}

// Server is the multi-tenant pub/sub fan-out tier over one topic.
type Server struct {
	topic *stream.Topic
	cfg   ServerConfig
	reg   *registry

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup

	sessions        atomic.Int64
	delivered       atomic.Int64
	batches         atomic.Int64
	bytesOut        atomic.Int64
	heartbeats      atomic.Int64
	shed            atomic.Int64
	gaps            atomic.Int64
	encodeDrops     atomic.Int64
	encodeCacheHits atomic.Int64
	disconnects     atomic.Int64
}

// NewServer serves the given topic with default configuration.
func NewServer(topic *stream.Topic) *Server {
	return NewServerConfig(topic, DefaultServerConfig())
}

// NewServerConfig serves the given topic with explicit configuration;
// zero fields take their defaults.
func NewServerConfig(topic *stream.Topic, cfg ServerConfig) *Server {
	def := DefaultServerConfig()
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = def.QueueBound
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = def.Heartbeat
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = def.BatchMax
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = def.WriteTimeout
	}
	return &Server{
		topic: topic,
		cfg:   cfg,
		reg:   newRegistry(cfg.TenantMaxSubscribers, cfg.TenantRate),
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
}

// Serve listens on addr, starts the fan-out pump, and returns the bound
// address.
func (s *Server) Serve(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	group := fmt.Sprintf("feed-fanout-%d", pumpNonce.Add(1))
	s.topic.Commit(group, int64(s.topic.Len()))
	s.wg.Add(2)
	go s.pump(group)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// Close stops the listener, terminates every live session, and waits for
// the pump and all session goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	close(s.done)
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.reg.closeAll(ErrServerClosed)
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// Stats returns the tier's counters.
func (s *Server) Stats() FanoutStats {
	subs, queued, maxDepth := s.reg.count()
	return FanoutStats{
		Subscribers: subs,
		Tenants:     s.reg.tenantCount(),
		QueueDepth:  queued,
		MaxDepth:    maxDepth,

		Sessions:        s.sessions.Load(),
		Delivered:       s.delivered.Load(),
		Batches:         s.batches.Load(),
		BytesOut:        s.bytesOut.Load(),
		Heartbeats:      s.heartbeats.Load(),
		Shed:            s.shed.Load(),
		Gaps:            s.gaps.Load(),
		EncodeDrops:     s.encodeDrops.Load(),
		EncodeCacheHits: s.encodeCacheHits.Load(),
		Disconnects:     s.disconnects.Load(),
	}
}

// pump is the single topic consumer feeding every subscriber queue: one
// consumer group for the whole tier, dropped on shutdown. It encodes each
// polled batch once, into a slab of its own that the batch's entries
// share across every queue until the last subscriber has written them.
func (s *Server) pump(group string) {
	defer s.wg.Done()
	consumer := stream.NewConsumer(s.topic, group, 4*s.cfg.BatchMax)
	defer consumer.Close()
	var ents []wireEntry // offer copies entries out, so one slice serves every batch
	for {
		select {
		case <-s.done:
			return
		default:
		}
		msgs, ok := consumer.WaitNext(s.done, 200*time.Millisecond)
		if !ok {
			continue
		}
		// A guess at the encoded size; appendEntry grows the slab when
		// escaping needs more.
		size := 128 * len(msgs)
		for i := range msgs {
			size += len(msgs[i].Key) + len(msgs[i].Value)
		}
		_, ents = encodeBatch(make([]byte, 0, size), ents[:0], msgs)
		s.shed.Add(s.reg.broadcast(ents))
	}
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// frameWriter serializes all writes to one connection (command replies
// and delivery frames interleave) behind a write deadline.
type frameWriter struct {
	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	timeout time.Duration
	bytes   *atomic.Int64
}

func (w *frameWriter) writeLine(line []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	if _, err := w.bw.Write(line); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	w.bytes.Add(int64(len(line)))
	return nil
}

func (w *frameWriter) writeFrame(f *Frame) error {
	line, err := encodeFrame(f)
	if err != nil {
		return err
	}
	return w.writeLine(line)
}

// session is one framed connection's state.
type session struct {
	srv    *Server
	conn   net.Conn
	w      *frameWriter
	id     int64
	tenant *tenant

	// sub is the active subscription; nil between UNSUBSCRIBE and the
	// next SUBSCRIBE. deliverWG tracks its delivery goroutine.
	sub       *subscriber
	deliverWG sync.WaitGroup

	// Delivery buffers, touched only by the delivery goroutine: the DATA
	// line being assembled, and a replayed log read's encodings and
	// entries. Reused from frame to frame, dropped when catch-up ends.
	frame []byte
	slab  []byte
	ents  []wireEntry
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	id := s.sessions.Add(1)

	w := &frameWriter{conn: conn, bw: bufio.NewWriter(conn), timeout: s.cfg.WriteTimeout, bytes: &s.bytesOut}
	r := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	first, err := r.ReadString('\n')
	if err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})

	sess := &session{srv: s, conn: conn, w: w, id: id}
	defer sess.stopSubscription()

	line := first
	for {
		cmd, perr := parseCommand(line)
		switch {
		case perr != nil:
			if !sess.sendError(perr) {
				return
			}
		case !sess.handle(cmd):
			return
		}
		if line, err = r.ReadString('\n'); err != nil {
			return
		}
	}
}

// sendError reports a protocol violation; false means the connection is
// unusable.
func (s *session) sendError(perr *protoError) bool {
	return s.w.writeFrame(&Frame{Kind: FrameError, Code: perr.code, Reason: perr.msg}) == nil
}

// handle executes one command; false ends the session.
func (s *session) handle(cmd command) bool {
	switch cmd.verb {
	case "HELLO":
		if s.sub != nil {
			return s.sendError(&protoError{CodeHelloAfterSub, "HELLO must precede SUBSCRIBE"})
		}
		s.tenant = s.srv.reg.tenant(cmd.tenant)
		return s.w.writeFrame(&Frame{
			Kind: FrameWelcome, Session: fmt.Sprintf("s%d", s.id),
			Tenant: s.tenant.name, Head: int64(s.srv.topic.Len()),
		}) == nil
	case "SUBSCRIBE":
		if s.sub != nil {
			return s.sendError(&protoError{CodeAlreadySubscribed, "session already has a subscription"})
		}
		if s.tenant == nil {
			s.tenant = s.srv.reg.tenant(DefaultTenant)
		}
		q := newSubQueue(s.srv.cfg.QueueBound, s.srv.cfg.ShedPolicy)
		sub, perr := s.srv.reg.add(s.tenant, q)
		if perr != nil {
			return s.sendError(perr)
		}
		from := cmd.from
		if from < 0 {
			from = int64(s.srv.topic.Len())
		}
		if s.w.writeFrame(&Frame{Kind: FrameSubscribed, From: from, Head: int64(s.srv.topic.Len())}) != nil {
			s.srv.reg.remove(sub)
			return false
		}
		s.sub = sub
		s.deliverWG.Add(1)
		go func() {
			defer s.deliverWG.Done()
			s.deliver(sub, from)
		}()
		return true
	default: // UNSUBSCRIBE, the only other verb parseCommand admits
		if s.sub == nil {
			return s.sendError(&protoError{CodeNotSubscribed, "no active subscription"})
		}
		s.stopSubscription()
		return true
	}
}

// stopSubscription tears the active subscription down and waits for its
// delivery goroutine.
func (s *session) stopSubscription() {
	if s.sub == nil {
		return
	}
	s.sub.queue.close(nil)
	s.deliverWG.Wait()
	s.srv.reg.remove(s.sub)
	s.sub = nil
}

// deliver is the per-subscriber delivery loop: catch-up replay straight
// from the log, then live consumption from the bounded queue, with
// heartbeats on idle and GAP frames for shed or unencodable ranges.
func (s *session) deliver(sub *subscriber, from int64) {
	srv := s.srv
	next := from
	// Catch-up: read the log directly while the queue rejects offers, so
	// a deep replay does not thrash the bounded queue.
	if !s.replayLog(sub, &next) {
		return
	}
	sub.queue.goLive()
	// Drain the publish window between the last empty read and goLive:
	// those messages are in the log but were never offered.
	if !s.replayLog(sub, &next) {
		return
	}
	// A session may tail for days: do not hold a replay's buffers under it.
	s.frame, s.slab, s.ents = nil, nil, nil
	var hbSeq int64
	for {
		ents, gap, ok, reason := sub.queue.take(srv.cfg.Heartbeat)
		if !ok {
			switch {
			case reason == nil:
				s.w.writeFrame(&Frame{Kind: FrameBye, Reason: "unsubscribe"})
			case errors.Is(reason, ErrSlowConsumer):
				srv.disconnects.Add(1)
				s.sendError(&protoError{CodeSlowConsumer, "queue overflowed; reconnect with SUBSCRIBE FROM to resume"})
				s.conn.Close()
			case errors.Is(reason, ErrServerClosed):
				s.w.writeFrame(&Frame{Kind: FrameBye, Reason: "shutdown"})
				s.conn.Close()
			}
			return
		}
		if gap != nil {
			srv.gaps.Add(1)
			if gap.From < next {
				// The front of the evicted range was already delivered
				// during catch-up; narrow the advertised hole.
				gap.From = next
				gap.Dropped = gap.To - gap.From + 1
			}
			if gap.Dropped > 0 {
				if s.w.writeFrame(&Frame{Kind: FrameGap, Gap: gap}) != nil {
					return
				}
			}
			if gap.To+1 > next {
				next = gap.To + 1
			}
		}
		if len(ents) == 0 {
			hbSeq++
			srv.heartbeats.Add(1)
			if s.w.writeFrame(&Frame{Kind: FrameHeartbeat, Seq: hbSeq, Head: int64(srv.topic.Len())}) != nil {
				return
			}
			continue
		}
		// Trim duplicates of the catch-up/race window.
		for len(ents) > 0 && ents[0].off < next {
			ents = ents[1:]
		}
		for len(ents) > 0 {
			n := min(len(ents), srv.cfg.BatchMax)
			if !s.send(sub, ents[:n], &next, true) {
				return
			}
			ents = ents[n:]
		}
	}
}

// replayLog streams the topic log from *next until caught up or the
// queue is closed mid-replay (unsubscribe / shutdown cut a deep replay
// short; the live loop's take then reports the closure); false means the
// connection failed. Each log read is encoded into the session's own
// slab, overwritten by the next read.
func (s *session) replayLog(sub *subscriber, next *int64) bool {
	for !sub.queue.isClosed() {
		batch := s.srv.topic.Read(*next, s.srv.cfg.BatchMax)
		if len(batch) == 0 {
			return true
		}
		s.slab, s.ents = encodeBatch(s.slab[:0], s.ents[:0], batch)
		if !s.send(sub, s.ents, next, false) {
			return false
		}
	}
	return true
}

// send writes one batch of at most BatchMax entries, applying the tenant
// rate limit and the encode-failure policy: each run of encoded entries
// goes out as one DATA frame, and an entry that could not be encoded is
// dropped loudly — counted in Stats and covered by a GAP marker — never
// silently skipped. Frames go out in offset order and *next follows
// them, so a client's resume cursor never moves backwards. shared says
// the encodings are the pump's. false means the connection failed.
func (s *session) send(sub *subscriber, ents []wireEntry, next *int64, shared bool) bool {
	srv := s.srv
	if d := sub.tenant.reserve(len(ents), time.Now()); d > 0 {
		time.Sleep(d)
	}
	for len(ents) > 0 {
		if off := ents[0].off; ents[0].enc == nil {
			srv.encodeDrops.Add(1)
			srv.gaps.Add(1)
			if s.w.writeFrame(&Frame{Kind: FrameGap, Gap: &Gap{From: off, To: off, Dropped: 1, Reason: "encode"}}) != nil {
				return false
			}
			*next = off + 1
			ents = ents[1:]
			continue
		}
		n := 1
		for n < len(ents) && ents[n].enc != nil {
			n++
		}
		s.frame = appendDataFrame(s.frame[:0], ents[:n])
		if s.w.writeLine(s.frame) != nil {
			return false
		}
		srv.delivered.Add(int64(n))
		srv.batches.Add(1)
		if shared {
			srv.encodeCacheHits.Add(int64(n))
		}
		*next = ents[n-1].off + 1
		ents = ents[n:]
	}
	return true
}
