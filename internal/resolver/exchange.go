// Exchange layer of the probe engine (DESIGN.md §10): pooled UDP
// sockets with pipelined outstanding queries, per-nameserver rate
// lanes, and an in-process adapter over dnsserver handlers — the three
// transports behind the resolver's batch API. The shape follows ZDNS:
// a small pool of long-lived sockets, reused buffers, and no goroutine
// per query.
//
// A UDP batch is driven by its caller in attempt rounds. Per round the
// calling goroutine packs every outstanding query back to back into one
// reused buffer, leases the next pooled socket in rotation, registers
// {round, slot, question} under each query's transaction ID there under
// one hold of the socket's lock, and sends the round with one batched
// write (internal/udpbatch); a query whose ID is already outstanding on
// that socket goes to the next one, or to a one-shot socket. Each
// socket's single reader goroutine takes every datagram queued on it
// per read, decodes them, and under one hold of the lock stores each
// response whose ID is pending and whose question matches what was
// asked under that ID straight into the batch's result slot; it then
// releases each round's filled count once, and the release that fills a
// round's last slot wakes the caller. One clock timer per round bounds
// the wait, after which the caller unregisters whatever is still
// pending, classifies it, and carries it into the next round under the
// next AttemptID. Exchange is a batch of one.
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
	"darkdns/internal/udpbatch"
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
	next    int // round-robin cursor over the pool, one step per round
	closed  bool
	readers sync.WaitGroup // every socket's reader; Add under mu while !closed
}

const (
	// replySlots is how many datagrams a socket's reader takes per read.
	replySlots = 32
	// replySlot is the longest response a reader takes whole, room for
	// any answer to a query advertising up to 8 KiB of EDNS payload: a
	// socket holds 256 KiB of receive slots. A longer datagram is
	// refused as malformed, never decoded from its first 8 KiB.
	replySlot = 8 << 10
)

// udpConn is one pooled socket plus its demultiplexer state.
type udpConn struct {
	conn *net.UDPConn
	bc   *udpbatch.Conn
	wmu  sync.Mutex // one batched write at a time: concurrent batches share sockets

	mu      sync.Mutex
	pending map[uint16]pendingQuery // transaction ID → where its answer goes
	dead    bool
	err     error // what killed the socket

	// malformed counts datagrams the reader refused: unparseable, longer
	// than a receive slot, or carrying a pending ID with some other
	// question.
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
// under their socket's lock and then release the slots they filled; the
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

func (u *UDPExchanger) size() int {
	if u.Conns <= 0 {
		return 4
	}
	return u.Conns
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

// leaseRound takes the round's socket — the next pool slot in rotation,
// dialed when empty and replaced when dead — and registers there, under
// one hold of its lock, every query packed for the round whose ID is
// free on it. It returns the socket and its pool index; a query it left
// unregistered keeps a nil socket in its slot.
func (u *UDPExchanger) leaseRound(rd *round, msgs []*dnsmsg.Message, slots []batchSlot) (*udpConn, int, error) {
	size := u.size()
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return nil, 0, fmt.Errorf("%w: exchanger closed", ErrDial)
	}
	i := u.next % size
	u.next++
	for i >= len(u.pool) {
		u.pool = append(u.pool, nil)
	}
	if c := u.pool[i]; c != nil {
		if c.registerRound(rd, msgs, slots) {
			return c, i, nil
		}
		c.conn.Close() // dead: release the descriptor, and the reader if a write killed it
	}
	c, err := u.dial()
	if err != nil {
		return nil, 0, err
	}
	u.pool[i] = c
	c.registerRound(rd, msgs, slots)
	return c, i, nil
}

// leaseOne registers p under id on a pooled socket where id is free,
// probing the pool from slot from on, dialing lazily and replacing dead
// sockets. When every pooled socket already has id outstanding — IDs
// are 16 bits hashed from names, so two of a batch's queries share one
// every few dozen batches — it dials a one-shot socket, which the caller
// closes when the round ends.
func (u *UDPExchanger) leaseOne(from int, id uint16, p pendingQuery) (c *udpConn, oneShot bool, err error) {
	size := u.size()
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return nil, false, fmt.Errorf("%w: exchanger closed", ErrDial)
	}
	for tries := 0; tries < size; tries++ {
		i := (from + tries) % size
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
			c.conn.Close() // dead: release the descriptor, and the reader if a write killed it
		}
		// Empty or dead slot: dial a replacement while holding the pool
		// lock (rare; only on first use and after socket errors).
		if c, err = u.dial(); err != nil {
			return nil, false, err
		}
		u.pool[i] = c
		return c, false, c.register(id, p)
	}
	if c, err = u.dial(); err != nil {
		return nil, false, err
	}
	return c, true, c.register(id, p)
}

// dial opens one socket and starts its reader. Callers hold u.mu.
func (u *UDPExchanger) dial() (*udpConn, error) {
	conn, err := net.Dial("udp", u.Addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDial, err)
	}
	uc := conn.(*net.UDPConn)
	bc, err := udpbatch.New(uc)
	if err != nil {
		uc.Close()
		return nil, fmt.Errorf("%w: %v", ErrDial, err)
	}
	c := &udpConn{conn: uc, bc: bc, pending: make(map[uint16]pendingQuery)}
	u.readers.Add(1)
	go func() {
		defer u.readers.Done()
		c.readLoop()
	}()
	return c, nil
}

// roundFill is how many slots of one round a read filled.
type roundFill struct {
	rd *round
	n  int
}

// readLoop demultiplexes response datagrams into the result slots of
// the rounds waiting on them, a read's worth at a time. A response is
// delivered only when its transaction ID is pending and its first
// question is the one asked under that ID; a pending ID with any other
// question is refused and counted with the unparseable and over-long
// datagrams (the ErrBadResponse signal), and the query stays pending.
// Responses nobody is waiting for (late answers to retried attempts,
// spoofs with the wrong ID) are dropped. A read error kills the socket.
func (c *udpConn) readLoop() {
	ms := make([]udpbatch.Message, replySlots)
	slab := make([]byte, replySlots*replySlot)
	for i := range ms {
		ms[i].Buf = slab[i*replySlot : (i+1)*replySlot : (i+1)*replySlot]
	}
	resps := make([]*dnsmsg.Message, replySlots)
	var fills []roundFill
	for {
		n, err := c.bc.ReadBatch(ms)
		if err != nil {
			c.fail(err)
			return
		}
		bad := 0
		for i, m := range ms[:n] {
			if m.Trunc {
				bad++
				continue
			}
			resp, err := dnsmsg.Unpack(m.Buf[:m.N])
			switch {
			case err != nil:
				bad++
			case resp.Header.Response:
				resps[i] = resp
			}
		}
		c.mu.Lock()
		for _, resp := range resps[:n] {
			if resp == nil {
				continue
			}
			p, ok := c.pending[resp.Header.ID]
			if !ok {
				continue
			}
			if len(resp.Questions) == 0 || resp.Questions[0].Name != p.name || resp.Questions[0].Type != p.typ {
				bad++
				continue
			}
			delete(c.pending, resp.Header.ID)
			p.rd.resps[p.slot] = resp
			fills = tally(fills, p.rd)
		}
		c.malformed.Add(int64(bad))
		c.mu.Unlock()
		for _, f := range fills {
			f.rd.release(f.n)
		}
		fills = fills[:0]
		clear(resps[:n])
	}
}

// tally counts one more filled slot of rd; a read rarely fills slots of
// more than one or two rounds.
func tally(fills []roundFill, rd *round) []roundFill {
	for i := range fills {
		if fills[i].rd == rd {
			fills[i].n++
			return fills
		}
	}
	return append(fills, roundFill{rd: rd, n: 1})
}

// fail kills the socket after a read or write error: every query
// pending on it fails with ErrDial at once, no register succeeds, and
// the next lease of its pool slot replaces it. The first error wins.
func (c *udpConn) fail(err error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead, c.err = true, err
	pending := c.pending
	c.pending = nil
	for _, p := range pending {
		p.rd.errs[p.slot] = fmt.Errorf("%w: %v", ErrDial, err)
	}
	c.mu.Unlock()
	for _, p := range pending {
		p.rd.release(1)
	}
}

// send writes datagrams with one batched write; a failed write kills
// the socket, as a failed read does.
func (c *udpConn) send(ms []udpbatch.Message) {
	c.wmu.Lock()
	_, err := c.bc.WriteBatch(ms)
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
	}
}

// registerRound registers, under one hold of the lock, every query
// packed for the round whose ID is free here and records this socket in
// its slot. It reports false, registering nothing, when the socket has
// died.
func (c *udpConn) registerRound(rd *round, msgs []*dnsmsg.Message, slots []batchSlot) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return false
	}
	bad0 := c.malformed.Load()
	for i := range slots {
		s := &slots[i]
		if s.end == 0 {
			continue // settled, or not packable
		}
		if _, busy := c.pending[s.id]; busy {
			continue
		}
		q := msgs[i].Questions[0]
		c.pending[s.id] = pendingQuery{rd: rd, slot: i, name: dnsname.Canonical(q.Name), typ: q.Type}
		s.c, s.bad0 = c, bad0
	}
	return true
}

// register installs p under id. It fails with errIDBusy when id is
// already outstanding here (leaseOne probes the next socket) and with
// ErrDial when the socket has died.
func (c *udpConn) register(id uint16, p pendingQuery) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return fmt.Errorf("%w: %v", ErrDial, c.err)
	}
	if _, taken := c.pending[id]; taken {
		return errIDBusy
	}
	c.pending[id] = p
	return nil
}

// unregister abandons slot's query (timeout, cancellation) and reports
// whether it was still pending; when it was not, the reader has already
// filled the slot, or a socket error failed it, and taking the lock here
// is what makes that write visible to the caller.
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
	settled    bool     // answered, or failed in a way no retry changes
	start, end int      // this round's datagram in the round's buffer; end 0 = none
	c          *udpConn // socket this round's attempt went out on; nil = not sent
	id         uint16   // this round's transaction ID
	bad0       int64    // c.malformed when the attempt was registered
}

// batchScratch is an ExchangeBatch call's working memory, kept in
// scratchPool between calls so a batch allocates only what it returns
// and its rounds' bookkeeping.
type batchScratch struct {
	slots []batchSlot
	wire  []byte             // a round's queries, packed back to back
	out   []udpbatch.Message // a round's datagrams on its socket
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// slotsFor returns n zeroed slots.
func (sc *batchScratch) slotsFor(n int) []batchSlot {
	if cap(sc.slots) < n {
		sc.slots = make([]batchSlot, n)
	}
	sc.slots = sc.slots[:n]
	clear(sc.slots)
	return sc.slots
}

// ExchangeBatch implements BatchExchanger: up to Retries+1 attempt
// rounds, each pipelining every still-unanswered message over one
// pooled socket, rotating per round, under a fresh AttemptID-rotated
// transaction ID, with one timeout armed on Clock per round. All sending
// is done here, on the calling goroutine; the sockets' readers fill the
// result slots. Failures classify per slot — ErrDial (unreachable, or
// the socket died under the query), wrapped context errors (canceled
// mid-exchange), ErrBadResponse (the server answered garbage, or the
// wrong question, all round), ErrTimeout (silence) — so callers' retry
// and shedding policy can tell them apart.
func (u *UDPExchanger) ExchangeBatch(ctx context.Context, msgs []*dnsmsg.Message) ([]*dnsmsg.Message, []error) {
	resps := make([]*dnsmsg.Message, len(msgs))
	errs := make([]error, len(msgs))
	sc := scratchPool.Get().(*batchScratch)
	defer scratchPool.Put(sc)
	slots := sc.slotsFor(len(msgs))
	unsettled := len(msgs)
	for a := 0; a <= u.Retries && unsettled > 0 && ctx.Err() == nil; a++ {
		rd := &round{resps: resps, errs: errs, done: make(chan struct{}, 1)}
		rd.left.Store(int32(len(msgs)) + 1)
		unsent := 1 // the caller's own count, then one per slot not sent
		var oneShots []*udpConn
		sc.wire = sc.wire[:0]
		for i, msg := range msgs {
			s := &slots[i]
			s.c, s.end = nil, 0
			if s.settled {
				unsent++
				continue
			}
			var packed []byte
			var err error
			if len(msg.Questions) == 0 {
				err = errors.New("resolver: query without a question")
			} else {
				packed, err = msg.AppendPack(sc.wire)
			}
			if err != nil {
				errs[i], s.settled = err, true
				unsettled--
				unsent++
				continue
			}
			s.start, s.end, sc.wire = len(sc.wire), len(packed), packed
			s.id = AttemptID(msg.Header.ID, a)
			binary.BigEndian.PutUint16(sc.wire[s.start:], s.id)
		}
		at := 0
		if c, i, err := u.leaseRound(rd, msgs, slots); err == nil {
			at = i + 1
			sc.out = sc.out[:0]
			for i := range slots {
				if s := &slots[i]; s.c == c {
					sc.out = append(sc.out, udpbatch.Message{Buf: sc.wire[s.start:s.end]})
				}
			}
			c.send(sc.out)
		}
		// Queries whose ID was outstanding on the round's socket already,
		// or every query when no socket could be had.
		for i, msg := range msgs {
			s := &slots[i]
			if s.end == 0 || s.c != nil {
				continue
			}
			q := msg.Questions[0]
			c, oneShot, err := u.leaseOne(at, s.id, pendingQuery{rd: rd, slot: i, name: dnsname.Canonical(q.Name), typ: q.Type})
			if oneShot && c != nil {
				oneShots = append(oneShots, c)
			}
			if err != nil {
				errs[i] = err
				unsent++
				continue
			}
			s.c, s.bad0 = c, c.malformed.Load()
			c.send([]udpbatch.Message{{Buf: sc.wire[s.start:s.end]}})
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
