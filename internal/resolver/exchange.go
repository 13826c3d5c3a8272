// Exchange layer of the probe engine (DESIGN.md §10): pooled UDP
// sockets with pipelined outstanding queries, per-nameserver rate
// lanes, and an in-process adapter over dnsserver handlers — the three
// transports behind the resolver's batch API. The shape follows ZDNS:
// a small pool of long-lived sockets, reused buffers, and no goroutine
// per query.
//
// A UDP batch is driven by its caller in attempt rounds. Per round the
// calling goroutine packs each outstanding query into one reused
// buffer, registers {round, slot, question} under the query's
// transaction ID on a leased socket and writes the datagram. Each
// socket's single reader goroutine decodes what arrives, and a response
// whose ID is pending and whose question matches what was asked under
// that ID is stored straight into the batch's result slot; the reader
// that fills a round's last slot wakes the caller. One clock timer per
// round bounds the wait, after which the caller unregisters whatever is
// still pending, classifies it, and carries it into the next round
// under the next AttemptID. Exchange is a batch of one.
package resolver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"darkdns/internal/dnsmsg"
	"darkdns/internal/dnsname"
	"darkdns/internal/simclock"
	"darkdns/internal/workpool"
)

// UDPExchanger sends queries over a pool of reused UDP sockets. Each
// socket runs one reader goroutine that demultiplexes response
// datagrams to the batches waiting on them by transaction ID and
// question, so many queries pipeline over few sockets (the ZDNS
// socket-pool shape) instead of paying a dial/close per query. Retries
// re-derive the transaction ID per attempt (AttemptID), and the
// per-round timeout is armed on Clock — simclock.Real for wire
// deployments, a Sim for deterministic tests.
type UDPExchanger struct {
	Addr    string         // server address, e.g. "127.0.0.1:5353"
	Timeout time.Duration  // per-attempt timeout (default 2 s)
	Retries int            // additional attempts after the first
	Conns   int            // socket pool size (default 4)
	Clock   simclock.Clock // timeout scheduling; nil = simclock.Real{}

	mu      sync.Mutex
	pool    []*udpConn
	next    int // round-robin cursor over the pool
	closed  bool
	readers sync.WaitGroup // every socket's reader; Add under mu while !closed
}

// udpConn is one pooled socket plus its demultiplexer state.
type udpConn struct {
	conn net.Conn

	mu      sync.Mutex
	pending map[uint16]pendingQuery // transaction ID → where its answer goes
	dead    bool
	readErr error

	// malformed counts datagrams the reader refused: unparseable, or
	// carrying a pending ID with some other question.
	malformed atomic.Int64
}

// pendingQuery is one outstanding query on a socket: the round slot its
// answer fills, and the question that answer must echo (RFC 5452 §9.1 —
// a 16-bit ID alone is matched by a late answer to an earlier query
// whose hashed ID collides, or by an off-path guess).
type pendingQuery struct {
	rd   *round
	slot int
	name string
	typ  dnsmsg.Type
}

// round is one attempt round of one batch. Readers fill resps/errs[slot]
// under their socket's lock and then release that slot's count; the
// caller holds one count of its own until it has finished sending.
type round struct {
	resps []*dnsmsg.Message
	errs  []error
	left  atomic.Int32
	done  chan struct{} // buffered: left reaches zero exactly once
}

// release drops n counts and wakes the caller on the last.
func (rd *round) release(n int) {
	if rd.left.Add(int32(-n)) == 0 {
		rd.done <- struct{}{}
	}
}

func (u *UDPExchanger) timeout() time.Duration {
	if u.Timeout <= 0 {
		return 2 * time.Second
	}
	return u.Timeout
}

func (u *UDPExchanger) clock() simclock.Clock {
	if u.Clock == nil {
		return simclock.Real{}
	}
	return u.Clock
}

// Close shuts the socket pool down and returns once every pooled
// socket's reader has exited (a one-shot socket's reader exits with the
// round that leased it); pending exchanges fail with ErrDial. The
// exchanger is unusable afterwards.
func (u *UDPExchanger) Close() error {
	u.mu.Lock()
	pool := u.pool
	u.pool, u.closed = nil, true
	u.mu.Unlock()
	var err error
	for _, c := range pool {
		if c == nil {
			continue
		}
		if cerr := c.conn.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	u.readers.Wait()
	return err
}

// errIDBusy: the transaction ID is already outstanding on this socket.
var errIDBusy = errors.New("resolver: transaction id busy")

// lease registers p under id on a pooled socket where id is free,
// dialing lazily and replacing dead sockets. When every pooled socket
// already has id outstanding — IDs are 16 bits hashed from names, so two
// of a batch's queries share one every few dozen batches — it dials a
// one-shot socket, which the caller closes when the round ends.
func (u *UDPExchanger) lease(id uint16, p pendingQuery) (c *udpConn, oneShot bool, err error) {
	size := u.Conns
	if size <= 0 {
		size = 4
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return nil, false, fmt.Errorf("%w: exchanger closed", ErrDial)
	}
	for tries := 0; tries < size; tries++ {
		i := u.next % size
		u.next++
		for i >= len(u.pool) {
			u.pool = append(u.pool, nil)
		}
		if c := u.pool[i]; c != nil {
			switch c.register(id, p) {
			case nil:
				return c, false, nil
			case errIDBusy:
				continue // collision: probe the next pool slot
			}
			c.conn.Close() // dead: its reader has gone, the descriptor has not
		}
		// Empty or dead slot: dial a replacement while holding the pool
		// lock (rare; only on first use and after socket errors).
		if c, err = u.dial(id, p); err != nil {
			return nil, false, err
		}
		u.pool[i] = c
		return c, false, nil
	}
	c, err = u.dial(id, p)
	return c, true, err
}

// dial opens one socket with p registered under id and starts its
// reader. Callers hold u.mu.
func (u *UDPExchanger) dial(id uint16, p pendingQuery) (*udpConn, error) {
	conn, err := net.Dial("udp", u.Addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDial, err)
	}
	c := &udpConn{conn: conn, pending: map[uint16]pendingQuery{id: p}}
	u.readers.Add(1)
	go func() {
		defer u.readers.Done()
		c.readLoop()
	}()
	return c, nil
}

// readLoop demultiplexes response datagrams into the result slots of
// the rounds waiting on them. A response is delivered only when its
// transaction ID is pending and its first question is the one asked
// under that ID; a pending ID with any other question is refused and
// counted with the unparseable datagrams (the ErrBadResponse signal),
// and the query stays pending. Responses nobody is waiting for (late
// answers to retried attempts, spoofs with the wrong ID) are dropped. A
// read error kills the socket and fails every pending slot with
// ErrDial.
func (c *udpConn) readLoop() {
	buf := make([]byte, 64<<10)
	for {
		n, err := c.conn.Read(buf)
		if err != nil {
			c.mu.Lock()
			c.dead, c.readErr = true, err
			pending := c.pending
			c.pending = nil
			for _, p := range pending {
				p.rd.errs[p.slot] = fmt.Errorf("%w: %v", ErrDial, err)
			}
			c.mu.Unlock()
			for _, p := range pending {
				p.rd.release(1)
			}
			return
		}
		resp, err := dnsmsg.Unpack(buf[:n])
		if err != nil {
			c.malformed.Add(1)
			continue
		}
		if !resp.Header.Response {
			continue
		}
		c.mu.Lock()
		p, ok := c.pending[resp.Header.ID]
		match := ok && len(resp.Questions) > 0 &&
			resp.Questions[0].Name == p.name && resp.Questions[0].Type == p.typ
		if match {
			delete(c.pending, resp.Header.ID)
			p.rd.resps[p.slot] = resp
		}
		c.mu.Unlock()
		switch {
		case match:
			p.rd.release(1)
		case ok:
			c.malformed.Add(1)
		}
	}
}

// register installs p under id. It fails with errIDBusy when id is
// already outstanding here (lease probes the next socket) and with
// ErrDial when the socket has died.
func (c *udpConn) register(id uint16, p pendingQuery) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return fmt.Errorf("%w: %v", ErrDial, c.readErr)
	}
	if _, taken := c.pending[id]; taken {
		return errIDBusy
	}
	c.pending[id] = p
	return nil
}

// unregister abandons slot's query (timeout, cancellation, failed
// write) and reports whether it was still pending; when it was not, the
// reader has already filled the slot, and taking the lock here is what
// makes that write visible to the caller.
func (c *udpConn) unregister(id uint16, rd *round, slot int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.pending[id]; ok && p.rd == rd && p.slot == slot {
		delete(c.pending, id)
		return true
	}
	return false
}

// Exchange implements Exchanger as a batch of one.
func (u *UDPExchanger) Exchange(ctx context.Context, msg *dnsmsg.Message) (*dnsmsg.Message, error) {
	resps, errs := u.ExchangeBatch(ctx, []*dnsmsg.Message{msg})
	return resps[0], errs[0]
}

// batchSlot is the caller's per-message state across attempt rounds.
type batchSlot struct {
	settled bool     // answered, or failed in a way no retry changes
	c       *udpConn // socket this round's attempt went out on; nil = not sent
	id      uint16   // this round's transaction ID
	bad0    int64    // c.malformed when the attempt was sent
}

// ExchangeBatch implements BatchExchanger: up to Retries+1 attempt
// rounds, each pipelining every still-unanswered message over the socket
// pool under a fresh AttemptID-rotated transaction ID, with one timeout
// armed on Clock per round. All sending is done here, on the calling
// goroutine; the sockets' readers fill the result slots. Failures
// classify per slot — ErrDial (unreachable, or the socket died under
// the query), wrapped context errors (canceled mid-exchange),
// ErrBadResponse (the server answered garbage, or the wrong question,
// all round), ErrTimeout (silence) — so callers' retry and shedding
// policy can tell them apart.
func (u *UDPExchanger) ExchangeBatch(ctx context.Context, msgs []*dnsmsg.Message) ([]*dnsmsg.Message, []error) {
	resps := make([]*dnsmsg.Message, len(msgs))
	errs := make([]error, len(msgs))
	slots := make([]batchSlot, len(msgs))
	wire := make([]byte, 0, 512)
	unsettled := len(msgs)
	for a := 0; a <= u.Retries && unsettled > 0 && ctx.Err() == nil; a++ {
		rd := &round{resps: resps, errs: errs, done: make(chan struct{}, 1)}
		rd.left.Store(int32(len(msgs)) + 1)
		unsent := 1 // the caller's own count, then one per slot not sent
		var oneShots []*udpConn
		for i, msg := range msgs {
			s := &slots[i]
			s.c = nil
			if s.settled {
				unsent++
				continue
			}
			var err error
			if len(msg.Questions) == 0 {
				err = errors.New("resolver: query without a question")
			} else {
				wire, err = msg.AppendPack(wire[:0])
			}
			if err != nil {
				errs[i], s.settled = err, true
				unsettled--
				unsent++
				continue
			}
			id := AttemptID(msg.Header.ID, a)
			binary.BigEndian.PutUint16(wire, id)
			q := msg.Questions[0]
			c, oneShot, err := u.lease(id, pendingQuery{rd: rd, slot: i, name: dnsname.Canonical(q.Name), typ: q.Type})
			if err != nil {
				errs[i] = err
				unsent++
				continue
			}
			if oneShot {
				oneShots = append(oneShots, c)
			}
			s.c, s.id, s.bad0 = c, id, c.malformed.Load()
			if _, err := c.conn.Write(wire); err != nil && c.unregister(id, rd, i) {
				errs[i], s.c = fmt.Errorf("%w: %v", ErrDial, err), nil
				unsent++
			}
		}
		rd.release(unsent)

		// A round in which nothing went out is already done: the release
		// above was its last.
		filled, timedOut := false, false
		timeout := make(chan struct{}, 1)
		u.clock().After(u.timeout(), func() { timeout <- struct{}{} })
		select {
		case <-rd.done:
			filled = true
		case <-timeout:
			timedOut = true
		case <-ctx.Done(): // reported for every unsettled slot below
		}
		for i := range slots {
			s := &slots[i]
			if s.c == nil {
				continue
			}
			if !filled && s.c.unregister(s.id, rd, i) && timedOut {
				if bad := s.c.malformed.Load() - s.bad0; bad > 0 {
					errs[i] = fmt.Errorf("%w: %d unusable datagrams within the attempt window", ErrBadResponse, bad)
				} else {
					errs[i] = fmt.Errorf("%w: no response within %v", ErrTimeout, u.timeout())
				}
			}
			if resps[i] != nil {
				errs[i], s.settled = nil, true
				unsettled--
			}
		}
		for _, c := range oneShots {
			c.conn.Close()
		}
	}
	if ctx.Err() != nil {
		for i := range slots {
			if !slots[i].settled {
				errs[i] = fmt.Errorf("resolver: exchange canceled: %w", ctx.Err())
			}
		}
	}
	return resps, errs
}

// Handler is the in-process DNS endpoint the LocalExchanger adapts —
// dnsserver.Handler satisfies it structurally, so simulations wire the
// probe engine straight onto their authoritative handlers without a
// package dependency or a socket.
type Handler interface {
	Handle(q dnsmsg.Question) *dnsmsg.Message
}

// LocalExchanger adapts an in-process handler to the exchange
// interface, response fix-ups matching dnsserver's wire path (ID
// mirroring, response bit, question echo) so the resolver exercises the
// identical code path against simulated and real servers.
type LocalExchanger struct {
	H Handler
	// Workers bounds ExchangeBatch's fan-out: ≤1 serves the batch
	// serially on the caller, ≥2 spreads it over a pool this wide
	// (handlers must be concurrency-safe, which dnsserver requires
	// already).
	Workers int
}

// Exchange implements Exchanger.
func (l *LocalExchanger) Exchange(_ context.Context, msg *dnsmsg.Message) (*dnsmsg.Message, error) {
	resp := l.H.Handle(msg.Questions[0])
	if resp == nil {
		resp = msg.Reply()
		resp.Header.RCode = dnsmsg.RCodeServFail
		return resp, nil
	}
	resp.Header.ID = msg.Header.ID
	resp.Header.Response = true
	if len(resp.Questions) == 0 {
		resp.Questions = msg.Questions
	}
	return resp, nil
}

// ExchangeBatch implements BatchExchanger on the worker pool.
func (l *LocalExchanger) ExchangeBatch(ctx context.Context, msgs []*dnsmsg.Message) ([]*dnsmsg.Message, []error) {
	resps := make([]*dnsmsg.Message, len(msgs))
	errs := make([]error, len(msgs))
	workpool.Run(len(msgs), l.Workers, func(i int) {
		resps[i], errs[i] = l.Exchange(ctx, msgs[i])
	})
	return resps, errs
}

// LaneConfig bounds one nameserver's rate lane.
type LaneConfig struct {
	// MaxInflight caps concurrent exchanges per nameserver (default 64).
	MaxInflight int
	// MaxQueued caps exchanges waiting for an in-flight slot before the
	// lane sheds with ErrRateLimited (default 128). Zero keeps the
	// default; negative disables queueing entirely.
	MaxQueued int
}

// lane is one nameserver's admission state.
type lane struct {
	slots  chan struct{} // in-flight tokens
	queued atomic.Int64  // waiters holding neither a token nor a shed
	shed   atomic.Int64
	done   atomic.Int64
}

// Lanes wraps an Exchanger with per-nameserver admission control: each
// nameserver key gets a bounded lane — MaxInflight concurrent exchanges
// plus at most MaxQueued waiters — and excess load is shed synchronously
// with ErrRateLimited instead of queueing without bound behind a slow or
// dead authority. The default key function maps a query to its name's
// TLD, matching the fleet's
// direct-to-TLD-nameserver deployment; NewLanes accepts a custom keyer
// for resolver pools fronting many upstreams.
type Lanes struct {
	cfg  LaneConfig
	next Exchanger
	key  func(*dnsmsg.Message) string

	mu    sync.Mutex
	lanes map[string]*lane
}

// NewLanes builds the lane layer over next. key may be nil (per-TLD
// lanes).
func NewLanes(cfg LaneConfig, next Exchanger, key func(*dnsmsg.Message) string) *Lanes {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.MaxQueued == 0 {
		cfg.MaxQueued = 128
	}
	if key == nil {
		key = func(m *dnsmsg.Message) string { return dnsname.TLD(m.Questions[0].Name) }
	}
	return &Lanes{cfg: cfg, next: next, key: key, lanes: make(map[string]*lane)}
}

func (ls *Lanes) lane(k string) *lane {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	l, ok := ls.lanes[k]
	if !ok {
		l = &lane{slots: make(chan struct{}, ls.cfg.MaxInflight)}
		ls.lanes[k] = l
	}
	return l
}

// admit acquires an in-flight token or sheds. The returned func
// releases the token; nil means the query was shed (err set).
func (ls *Lanes) admit(ctx context.Context, l *lane) (func(), error) {
	select {
	case l.slots <- struct{}{}: // fast path: free slot, no queueing
		return func() { <-l.slots }, nil
	default:
	}
	maxQ := int64(ls.cfg.MaxQueued)
	if maxQ < 0 {
		maxQ = 0
	}
	if l.queued.Add(1) > maxQ {
		l.queued.Add(-1)
		l.shed.Add(1)
		return nil, fmt.Errorf("%w: lane saturated (%d in flight, %d queued)", ErrRateLimited, ls.cfg.MaxInflight, maxQ)
	}
	defer l.queued.Add(-1)
	select {
	case l.slots <- struct{}{}:
		return func() { <-l.slots }, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("resolver: exchange canceled: %w", ctx.Err())
	}
}

// Exchange implements Exchanger with lane admission.
func (ls *Lanes) Exchange(ctx context.Context, msg *dnsmsg.Message) (*dnsmsg.Message, error) {
	l := ls.lane(ls.key(msg))
	release, err := ls.admit(ctx, l)
	if err != nil {
		return nil, err
	}
	defer release()
	defer l.done.Add(1)
	return ls.next.Exchange(ctx, msg)
}

// ExchangeBatch implements BatchExchanger: every message passes its
// lane's admission individually, and the admitted remainder forwards as
// one batch when the inner transport supports it. Batch admission never
// queues — a batch that oversubscribes a lane holds that lane's slots
// until the whole batch completes, so waiting intra-batch would
// deadlock; the excess is shed synchronously with ErrRateLimited in its
// error slot instead.
func (ls *Lanes) ExchangeBatch(ctx context.Context, msgs []*dnsmsg.Message) ([]*dnsmsg.Message, []error) {
	resps := make([]*dnsmsg.Message, len(msgs))
	errs := make([]error, len(msgs))
	admitted := make([]int, 0, len(msgs))
	for i, m := range msgs {
		l := ls.lane(ls.key(m))
		select {
		case l.slots <- struct{}{}:
			admitted = append(admitted, i)
		default:
			l.shed.Add(1)
			errs[i] = fmt.Errorf("%w: lane saturated (%d in flight)", ErrRateLimited, ls.cfg.MaxInflight)
		}
	}
	defer func() {
		for _, i := range admitted {
			l := ls.lane(ls.key(msgs[i]))
			<-l.slots
			l.done.Add(1)
		}
	}()
	if len(admitted) == 0 {
		return resps, errs
	}
	if be, ok := ls.next.(BatchExchanger); ok {
		fwd := make([]*dnsmsg.Message, len(admitted))
		for j, i := range admitted {
			fwd[j] = msgs[i]
		}
		fresps, ferrs := be.ExchangeBatch(ctx, fwd)
		for j, i := range admitted {
			resps[i], errs[i] = fresps[j], ferrs[j]
		}
		return resps, errs
	}
	for _, i := range admitted {
		resps[i], errs[i] = ls.next.Exchange(ctx, msgs[i])
	}
	return resps, errs
}

// LaneStat is one nameserver lane's counters.
type LaneStat struct {
	Server   string
	Inflight int   // exchanges currently holding a slot
	Queued   int64 // exchanges currently waiting for a slot
	Done     int64 // exchanges completed through this lane
	Shed     int64 // exchanges rejected with ErrRateLimited
}

// LaneStats snapshots every lane, sorted by server key.
func (ls *Lanes) LaneStats() []LaneStat {
	ls.mu.Lock()
	keys := make([]string, 0, len(ls.lanes))
	for k := range ls.lanes {
		keys = append(keys, k)
	}
	lanes := make([]*lane, len(keys))
	for i, k := range keys {
		lanes[i] = ls.lanes[k]
	}
	ls.mu.Unlock()
	out := make([]LaneStat, len(keys))
	for i, k := range keys {
		out[i] = LaneStat{
			Server:   k,
			Inflight: len(lanes[i].slots),
			Queued:   lanes[i].queued.Load(),
			Done:     lanes[i].done.Load(),
			Shed:     lanes[i].shed.Load(),
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Server < out[j].Server })
	return out
}
