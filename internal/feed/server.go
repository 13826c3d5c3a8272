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

// ErrServerClosed ends every subscription when the server shuts down.
var ErrServerClosed = errors.New("feed: server closed")

// ServerConfig parameterizes the fan-out tier.
type ServerConfig struct {
	// QueueBound bounds a live cursor's lag: how many entries a subscriber
	// that has caught up once may fall behind the head of the log before
	// the shed policy applies. A catch-up replay is never shed.
	QueueBound int
	// ShedPolicy selects what happens when a live cursor lags further.
	ShedPolicy ShedPolicy
	// Heartbeat is the idle interval between hb frames.
	Heartbeat time.Duration
	// BatchMax bounds entries per DATA frame and per log read.
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

// FanoutStats is the tier's counter surface: delivery, lag and shedding
// totals plus the live registry shape.
type FanoutStats struct {
	Subscribers int // live subscriptions right now
	Tenants     int // tenants ever seen
	QueueDepth  int // entries the live cursors lag the head by, summed, right now
	MaxDepth    int // deepest live cursor lag observed

	Sessions    int64 // connections ever accepted
	Delivered   int64 // entries sent in DATA frames
	Batches     int64 // DATA frames sent
	BytesOut    int64 // payload bytes written
	Heartbeats  int64 // hb frames sent
	Shed        int64 // entries skipped by drop-oldest shedding
	Gaps        int64 // GAP frames emitted
	EncodeDrops int64 // entries lost to encoding failures (gap-marked)
	// EncodeCacheHits counts the delivered entries whose bytes came from
	// the server's encoded log. Each entry is encoded once, by the pump
	// or Serve's backlog pass, and every delivery sends those bytes, so
	// this always equals Delivered.
	EncodeCacheHits int64
	Disconnects     int64 // subscribers cut by the disconnect shed policy
}

// Server is the multi-tenant pub/sub fan-out tier over one topic.
type Server struct {
	topic *stream.Topic
	cfg   ServerConfig
	reg   *registry
	log   encodedLog

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup

	sessions    atomic.Int64
	delivered   atomic.Int64
	batches     atomic.Int64
	bytesOut    atomic.Int64
	heartbeats  atomic.Int64
	shed        atomic.Int64
	gaps        atomic.Int64
	encodeDrops atomic.Int64
	disconnects atomic.Int64
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
	from := s.encodeBacklog()
	s.wg.Add(2)
	go s.pump(from)
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
	subs, tenants, lag, maxLag := s.reg.count(s.log.entries.Len())
	delivered := s.delivered.Load()
	return FanoutStats{
		Subscribers: subs,
		Tenants:     tenants,
		QueueDepth:  lag,
		MaxDepth:    maxLag,

		Sessions:        s.sessions.Load(),
		Delivered:       delivered,
		Batches:         s.batches.Load(),
		BytesOut:        s.bytesOut.Load(),
		Heartbeats:      s.heartbeats.Load(),
		Shed:            s.shed.Load(),
		Gaps:            s.gaps.Load(),
		EncodeDrops:     s.encodeDrops.Load(),
		EncodeCacheHits: delivered,
		Disconnects:     s.disconnects.Load(),
	}
}

// encodeBacklog appends the entries published before Serve to the log
// and returns its head, the offset the pump starts reading at.
func (s *Server) encodeBacklog() int64 {
	for {
		msgs := s.topic.Read(s.log.entries.Len(), 4*s.cfg.BatchMax)
		if len(msgs) == 0 {
			return s.log.entries.Len()
		}
		s.log.append(msgs)
	}
}

// pump is the topic's single reader, from offset from on. It encodes
// each batch it reads into the log, whose append wakes every session
// waiting at the head, and readies the log's next storage only after
// that wake-up.
func (s *Server) pump(from int64) {
	defer s.wg.Done()
	consumer := stream.NewConsumer(s.topic, from, 4*s.cfg.BatchMax)
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
		s.log.append(msgs)
		s.log.reserve()
	}
}

// logChunk is the size of the chunks encodings are copied into at their
// exact size.
const logChunk = 64 << 10

// encodedLog is the server's append-only record of every entry it has
// encoded, indexed by offset: every session reads it through its own
// cursor. Its one writer (the backlog pass, then the pump) encodes each
// batch, copies the encodings into its chunk arena, where they never
// change, and appends the entries to the log.
type encodedLog struct {
	entries stream.Log[wireEntry]

	// Writer-only: the chunk being filled, the one reserved to follow it,
	// and the scratch slab and entries each batch is encoded into before
	// it is copied out.
	chunk []byte
	spare []byte
	slab  []byte
	ents  []wireEntry
}

// append encodes msgs, which continue the log from its head, and appends
// them.
func (l *encodedLog) append(msgs []stream.Message) {
	l.slab, l.ents = encodeBatch(l.slab[:0], l.ents[:0], msgs)
	for i := range l.ents {
		e := &l.ents[i]
		if e.enc == nil {
			continue
		}
		if cap(l.chunk)-len(l.chunk) < len(e.enc) {
			l.chunk = l.nextChunk(len(e.enc))
		}
		start := len(l.chunk)
		l.chunk = append(l.chunk, e.enc...)
		e.enc = l.chunk[start:len(l.chunk):len(l.chunk)]
	}
	l.entries.Append(l.ents...)
}

// nextChunk returns an empty chunk with room for n bytes: the reserved
// spare when it is large enough, else a new one.
func (l *encodedLog) nextChunk(n int) []byte {
	if c := l.spare; cap(c) >= n {
		l.spare = nil
		return c[:0]
	}
	return make([]byte, 0, max(logChunk, n))
}

// reserve readies the storage the next appends will need: a spare chunk
// once the current one is three-quarters full, cleared for the reason
// stream.Log.Reserve clears its page, and the log's next page.
func (l *encodedLog) reserve() {
	if l.spare == nil && cap(l.chunk)-len(l.chunk) < logChunk/4 {
		l.spare = make([]byte, logChunk)
		clear(l.spare)
	}
	l.entries.Reserve()
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

	// frame is the DATA line being assembled, touched only by the
	// delivery goroutine and reused from frame to frame.
	frame []byte
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
		from := cmd.from
		if from < 0 {
			from = int64(s.srv.topic.Len())
		}
		sub := newSubscriber(s.tenant, &s.srv.log.entries, from, s.srv.cfg)
		if perr := s.srv.reg.add(sub); perr != nil {
			return s.sendError(perr)
		}
		if s.w.writeFrame(&Frame{Kind: FrameSubscribed, From: from, Head: int64(s.srv.topic.Len())}) != nil {
			s.srv.reg.remove(sub)
			return false
		}
		s.sub = sub
		s.deliverWG.Add(1)
		go func() {
			defer s.deliverWG.Done()
			s.deliver(sub)
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
	s.sub.close(nil)
	s.deliverWG.Wait()
	s.srv.reg.remove(s.sub)
	s.sub = nil
}

// deliver is the subscription's delivery loop: it sends what its cursor
// reads from the encoded log, a catch-up replay and the live tail alike,
// with heartbeats on idle and GAP frames for shed or unencodable ranges.
func (s *session) deliver(sub *subscriber) {
	srv := s.srv
	var hbSeq int64
	for {
		ents, gap, ok, reason := sub.take(srv.cfg.Heartbeat)
		if !ok {
			switch {
			case reason == nil:
				s.w.writeFrame(&Frame{Kind: FrameBye, Reason: "unsubscribe"})
			case errors.Is(reason, ErrSlowConsumer):
				srv.disconnects.Add(1)
				s.sendError(&protoError{CodeSlowConsumer, fmt.Sprintf(
					"cursor fell more than %d entries behind the head; reconnect with SUBSCRIBE FROM to resume", srv.cfg.QueueBound)})
				s.conn.Close()
			case errors.Is(reason, ErrServerClosed):
				s.w.writeFrame(&Frame{Kind: FrameBye, Reason: "shutdown"})
				s.conn.Close()
			}
			return
		}
		if gap != nil {
			srv.shed.Add(gap.Dropped)
			srv.gaps.Add(1)
			if s.w.writeFrame(&Frame{Kind: FrameGap, Gap: gap}) != nil {
				return
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
		if !s.send(sub, ents) {
			return
		}
	}
}

// send writes one batch of at most BatchMax entries, applying the tenant
// rate limit and the encode-failure policy: each run of encoded entries
// goes out as one DATA frame, and an entry that could not be encoded is
// dropped loudly — counted in Stats and covered by a GAP marker — never
// silently skipped. Frames go out in offset order, so a client's resume
// cursor never moves backwards. false means the connection failed.
func (s *session) send(sub *subscriber, ents []wireEntry) bool {
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
		ents = ents[n:]
	}
	return true
}
