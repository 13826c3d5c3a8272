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
	// EncodeCacheHits counts the delivered entries whose bytes came from
	// the server's encoded log. Each entry is encoded once, by the pump
	// or Serve's backlog pass, and live and replayed deliveries both send
	// those bytes, so this always equals Delivered.
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
	subs, queued, maxDepth := s.reg.count()
	delivered := s.delivered.Load()
	return FanoutStats{
		Subscribers: subs,
		Tenants:     s.reg.tenantCount(),
		QueueDepth:  queued,
		MaxDepth:    maxDepth,

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
		msgs := s.topic.Read(s.log.len(), 4*s.cfg.BatchMax)
		if len(msgs) == 0 {
			return s.log.len()
		}
		s.log.append(msgs)
	}
}

// pump is the single topic reader feeding every subscriber queue, from
// offset from on. It appends each batch it reads to the log before it
// broadcasts it, so a session that goes live after a missed broadcast
// finds those entries in its second replay, and readies the log's next
// storage only after the broadcast.
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
		s.shed.Add(s.reg.broadcast(s.log.append(msgs)))
		s.log.reserve()
	}
}

// Encoded-log geometry: entries live in fixed pages, the topic's page
// size, so appending never moves one and a page of the log covers a page
// of the topic; encodings live in chunks they are copied into at their
// exact size.
const (
	logPage  = stream.PageSize
	logChunk = 64 << 10
)

// encodedLog is the server's append-only record of every entry it has
// encoded, indexed by offset. Its one writer (the backlog pass, then the
// pump) encodes, copies and publishes; replaying sessions read it. Pages
// and encodings never change once written, so the lock covers only the
// head and the page table.
type encodedLog struct {
	mu    sync.RWMutex
	pages [][]wireEntry
	head  int64

	// Writer-only: the chunk being filled, the one reserved to follow it,
	// and the scratch slab and entries each batch is encoded into before
	// it is copied out.
	chunk []byte
	spare []byte
	slab  []byte
	ents  []wireEntry
}

// len returns the log's head: the offset after its last entry.
func (l *encodedLog) len() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.head
}

// append encodes msgs, which continue the log from its head, and appends
// them. The returned entries are the writer's scratch, valid until the
// next append; their encodings belong to the log and never change.
func (l *encodedLog) append(msgs []stream.Message) []wireEntry {
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
	l.mu.Lock()
	for _, e := range l.ents {
		p := l.head / logPage
		if p == int64(len(l.pages)) {
			l.pages = append(l.pages, make([]wireEntry, logPage))
		}
		l.pages[p][l.head%logPage] = e
		l.head++
	}
	l.mu.Unlock()
	return l.ents
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
// once the current one is three-quarters full, and the page after the
// last once fewer than a quarter page of slots remain. Each is cleared,
// because a fresh allocation may come as untouched memory whose pages
// would otherwise fault in under append's copy, between a batch's
// publication and its broadcast. Pages beyond the head are never read.
func (l *encodedLog) reserve() {
	if l.spare == nil && cap(l.chunk)-len(l.chunk) < logChunk/4 {
		l.spare = make([]byte, logChunk)
		clear(l.spare)
	}
	// The writer alone changes head and pages, so it reads them unlocked.
	if int64(len(l.pages))*logPage-l.head < logPage/4 {
		page := make([]wireEntry, logPage)
		clear(page)
		l.mu.Lock()
		l.pages = append(l.pages, page)
		l.mu.Unlock()
	}
}

// read returns up to max entries from off, stopping at the head and at
// the end of off's page; nil when off is at or past the head. The slice
// aliases the log and must not be written.
func (l *encodedLog) read(off int64, max int) []wireEntry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if off >= l.head {
		return nil
	}
	i := off % logPage
	end := min(i+int64(max), logPage, i+l.head-off)
	return l.pages[off/logPage][i:end:end]
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
			if !s.send(sub, ents[:n], &next) {
				return
			}
			ents = ents[n:]
		}
	}
}

// replayLog sends the encoded log from *next until it reaches the head
// or the queue is closed mid-replay (unsubscribe / shutdown cut a deep
// replay short; the live loop's take then reports the closure); false
// means the connection failed.
func (s *session) replayLog(sub *subscriber, next *int64) bool {
	for !sub.queue.isClosed() {
		ents := s.srv.log.read(*next, s.srv.cfg.BatchMax)
		if len(ents) == 0 {
			return true
		}
		if !s.send(sub, ents, next) {
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
// them, so a client's resume cursor never moves backwards. false means
// the connection failed.
func (s *session) send(sub *subscriber, ents []wireEntry, next *int64) bool {
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
		*next = ents[n-1].off + 1
		ents = ents[n:]
	}
	return true
}
