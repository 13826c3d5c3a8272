// Asynchronous per-TLD RDAP dispatch engine.
//
// The paper's collection pipeline (§4.2) fires RDAP lookups from a fleet
// of Azure workers the moment a candidate clears screening; per-source
// rate limiting is what produces its ≈3 % failure rate. The Dispatcher
// reproduces that shape in-process: every admitted candidate enqueues
// into its TLD's bounded queue, queues drain through a worker pool once
// the queueing delay elapses, and saturated queues shed load with
// ErrRateLimited instead of blocking the ingest path.
//
// Determinism contract: queue state changes only at clock events
// (enqueues and drains), and a drain executes every due query at one
// simulated instant behind a completion barrier. Worker-pool width
// therefore parallelizes execution without reordering any observable —
// campaign reports are byte-identical across serial dispatch and any
// worker count. Failure injection draws from a generator derived from
// the dispatcher seed and the domain name alone, mirroring
// core.domainRand.
package rdap

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"darkdns/internal/dnsname"
	"darkdns/internal/simclock"
	"darkdns/internal/workpool"
)

// Query is one RDAP lookup handed to the Dispatcher.
type Query struct {
	Domain string
	// Delay is the queueing delay between detection and dispatch (the
	// paper's Azure worker hand-off): the query becomes due Delay after
	// Enqueue on the dispatcher's clock.
	Delay time.Duration
	// InjectFailure forces the query to fail with ErrRateLimited at
	// dispatch time without touching the backend. Callers that already
	// model collection failures deterministically (the core pipeline
	// draws them from its per-domain generator) decide injection
	// themselves; otherwise DispatcherConfig.FailureRate applies.
	InjectFailure bool
	// Done receives the outcome and the completion instant. It is called
	// exactly once — from a dispatch worker, or synchronously from Enqueue
	// when the TLD queue sheds the query — and must not block. The
	// instant is the completing event's own: under a lookahead-draining
	// clock the dispatcher's due-timers are effect-tagged and may fire
	// ahead of committed time, so a callback must use it instead of
	// reading the (lagging) clock. A nil Done discards the outcome.
	Done func(*Record, error, time.Time)
}

// finish reports the outcome through Done.
func (q *Query) finish(rec *Record, err error, now time.Time) {
	if q.Done != nil {
		q.Done(rec, err, now)
	}
}

// DomainBatch is a set of queries enqueued together, the batch-oriented
// counterpart of Enqueue for callers that admit candidates in batches
// (core.HandleBatch builds one per event batch).
type DomainBatch []Query

// DispatcherConfig parameterizes the dispatch engine.
type DispatcherConfig struct {
	// Workers is the pool width draining each ready round. 1 (or 0)
	// executes serially on the drain goroutine.
	Workers int
	// QueueDepth bounds each TLD's backlog of admitted-but-incomplete
	// queries; Enqueue sheds the excess with ErrRateLimited. 0 means
	// unbounded (the campaign default: shedding would perturb the
	// serial/parallel determinism contract).
	QueueDepth int
	// Inflight caps how many of one TLD's queries execute concurrently.
	// 0 means unbounded.
	Inflight int
	// FailureRate injects collection failures for queries that do not
	// set InjectFailure themselves, drawn deterministically from
	// (Seed, domain). 0 disables dispatcher-side injection.
	FailureRate float64
	// Seed derives the failure-injection generator.
	Seed int64
}

// pendingQuery is a Query plus its enqueue bookkeeping.
type pendingQuery struct {
	Query
	at   time.Time // enqueue instant, for latency accounting
	fail bool      // resolved injection decision
}

// tldQueue is one TLD's dispatch state. All fields are guarded by mu;
// counters are read by Stats.
type tldQueue struct {
	tld string

	mu         sync.Mutex
	ready      []pendingQuery // due, awaiting a worker
	pending    int            // admitted and not yet completed
	inflight   int            // executing right now
	maxDepth   int            // deepest backlog observed
	completed  int64
	shed       int64
	latencySum time.Duration // enqueue→completion, summed over completions
}

// Dispatcher maintains per-TLD bounded query queues drained by worker
// pools. Safe for concurrent use.
type Dispatcher struct {
	cfg     DispatcherConfig
	clk     simclock.Clock
	backend Querier
	// backendAt is backend's time-explicit extension, resolved once at
	// construction. Non-nil enables effect-tagged due-timers: the
	// lookahead drain may then fire this dispatcher's queries ahead of
	// committed time, with the query evaluated at the event's own instant.
	// Wire backends (Client) leave it nil and every due-timer stays an
	// untagged barrier — always safe.
	backendAt QuerierAt

	// tlds is the queue directory: copy-on-write so the enqueue hot path
	// resolves its queue without locking (mirroring Mux routing).
	tlds cowMap[*tldQueue]

	enqueued  atomic.Int64
	completed atomic.Int64
	shed      atomic.Int64
	failed    atomic.Int64
}

// NewDispatcher creates a dispatch engine executing lookups against
// backend, scheduled on clk (nil means the real-time clock).
func NewDispatcher(cfg DispatcherConfig, clk simclock.Clock, backend Querier) *Dispatcher {
	if clk == nil {
		clk = simclock.Real{}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	d := &Dispatcher{cfg: cfg, clk: clk, backend: backend}
	d.backendAt, _ = backend.(QuerierAt)
	return d
}

// queue resolves (or creates) the dispatch queue for tld.
func (d *Dispatcher) queue(tld string) *tldQueue {
	return d.tlds.getOrCreate(tld, func() *tldQueue { return &tldQueue{tld: tld} })
}

// injectFail decides dispatcher-side failure injection for domain: the
// shared splitmix64 finalizer over (seed, domain hash), so the decision
// is a pure function of configuration and name — the same derivation
// contract as the core pipeline's per-domain generators.
func (d *Dispatcher) injectFail(domain string) bool {
	if d.cfg.FailureRate <= 0 {
		return false
	}
	x := dnsname.Mix64((dnsname.Hash64(domain) ^ uint64(d.cfg.Seed)) + 0x9e3779b97f4a7c15)
	return float64(x>>11)/(1<<53) < d.cfg.FailureRate
}

// Enqueue admits one query to its TLD's queue, reporting acceptance.
// When the queue is at QueueDepth the query is shed: Done is invoked
// synchronously with ErrRateLimited and Enqueue returns false. Enqueue
// never blocks on query execution.
func (d *Dispatcher) Enqueue(q Query) bool {
	domain := dnsname.Canonical(q.Domain)
	tq := d.queue(dnsname.TLD(domain))
	tq.mu.Lock()
	if d.cfg.QueueDepth > 0 && tq.pending >= d.cfg.QueueDepth {
		tq.shed++
		tq.mu.Unlock()
		d.shed.Add(1)
		q.finish(nil, ErrRateLimited, d.clk.Now())
		return false
	}
	tq.pending++
	if tq.pending > tq.maxDepth {
		tq.maxDepth = tq.pending
	}
	tq.mu.Unlock()
	d.enqueued.Add(1)

	pq := pendingQuery{Query: q, at: d.clk.Now(), fail: q.InjectFailure || d.injectFail(domain)}
	pq.Domain = domain
	fire := func(now time.Time) {
		tq.mu.Lock()
		tq.ready = append(tq.ready, pq)
		tq.mu.Unlock()
		d.drain(tq, now)
	}
	// The due-timer is parallel-marked: queries sharing an instant are
	// commutative (per-query outcomes derive from (seed, domain) and the
	// frozen simulated time; counters are sums), so a batched clock drain
	// may fire a whole cohort of due-timers concurrently. With a
	// time-explicit backend the timer is additionally effect-tagged —
	// the domain's atom (the query reads that domain's registry slice,
	// which its lifecycle events mutate) plus the TLD's dispatch lane
	// (every same-TLD due-timer mutates this tldQueue, so they serialize
	// against each other) — letting the lookahead drain fire due-timers
	// of unrelated domains from different instants together.
	if ts, ok := d.clk.(simclock.TagScheduler); ok && d.backendAt != nil {
		ts.ScheduleTagged(simclock.TaggedTimed{
			At:  pq.at.Add(q.Delay),
			Tag: simclock.DomainTag(domain) | simclock.LaneTag("rdap/"+dnsname.TLD(domain)),
			Par: true,
			Fn:  fire,
		})
	} else {
		simclock.AfterPar(d.clk, q.Delay, func() { fire(d.clk.Now()) })
	}
	return true
}

// EnqueueBatch admits a batch, returning how many queries were accepted
// (the rest were shed with ErrRateLimited through their Done callbacks).
func (d *Dispatcher) EnqueueBatch(batch DomainBatch) int {
	accepted := 0
	for _, q := range batch {
		if d.Enqueue(q) {
			accepted++
		}
	}
	return accepted
}

// drain executes due queries for one TLD until its ready queue is empty
// or the in-flight cap is saturated (in which case the drain holding the
// capacity picks the remainder up when it loops). now is the draining
// event's instant, passed explicitly because tagged due-timers may fire
// ahead of the clock's committed time.
func (d *Dispatcher) drain(tq *tldQueue, now time.Time) {
	for {
		tq.mu.Lock()
		n := len(tq.ready)
		if cap := d.cfg.Inflight; cap > 0 && n > cap-tq.inflight {
			n = cap - tq.inflight
		}
		if n <= 0 {
			tq.mu.Unlock()
			return
		}
		batch := make([]pendingQuery, n)
		copy(batch, tq.ready)
		rest := copy(tq.ready, tq.ready[n:])
		clear(tq.ready[rest:]) // release drained Done closures
		tq.ready = tq.ready[:rest]
		tq.inflight += n
		tq.mu.Unlock()

		d.execute(batch, now)

		tq.mu.Lock()
		tq.inflight -= n
		tq.pending -= n
		tq.completed += int64(n)
		for i := range batch {
			tq.latencySum += now.Sub(batch[i].at)
		}
		tq.mu.Unlock()
		d.completed.Add(int64(n))
	}
}

// execute runs one ready round on the worker pool and waits for it to
// complete. The barrier is what keeps parallel dispatch deterministic
// under the simulated clock: every query in the round observes the same
// instant, and no clock event fires mid-round.
func (d *Dispatcher) execute(batch []pendingQuery, now time.Time) {
	run := func(pq pendingQuery) {
		if pq.fail {
			d.failed.Add(1)
			pq.finish(nil, ErrRateLimited, now)
			return
		}
		var rec *Record
		var err error
		if d.backendAt != nil {
			rec, err = d.backendAt.DomainAt(context.Background(), pq.Domain, now)
		} else {
			rec, err = d.backend.Domain(context.Background(), pq.Domain)
		}
		// ErrNotFound/ErrNotSynced are ordinary RDAP answers (the
		// too-late and too-early outcomes the pipeline classifies, and
		// the primary signal for transients); only rate limiting and
		// unavailability count toward the §4.2 failure class.
		if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrNotSynced) {
			d.failed.Add(1)
		}
		pq.finish(rec, err, now)
	}
	workpool.Run(len(batch), d.cfg.Workers, func(j int) { run(batch[j]) })
}

// DispatchStats aggregates the engine's counters. Every field is a pure
// function of the clock's event sequence, so stats — like campaign
// reports — are identical across worker-pool widths.
type DispatchStats struct {
	Enqueued  int64 // queries admitted to a queue
	Completed int64 // queries executed (including injected failures)
	Shed      int64 // queries rejected at QueueDepth with ErrRateLimited
	// Failed counts the §4.2 collection-failure class: injected
	// failures, rate limiting and unavailability. Not-found and
	// not-yet-synced are ordinary answers, not failures.
	Failed   int64
	Pending  int // admitted but not yet completed, right now
	TLDs     int // queues in the directory
	MaxDepth int // deepest per-TLD backlog observed
	// AvgLatency is the mean enqueue→completion time over completed
	// queries (queueing delay plus drain wait).
	AvgLatency time.Duration
}

// Stats returns the engine-wide counters.
func (d *Dispatcher) Stats() DispatchStats {
	s := DispatchStats{
		Enqueued:  d.enqueued.Load(),
		Completed: d.completed.Load(),
		Shed:      d.shed.Load(),
		Failed:    d.failed.Load(),
	}
	var latencySum time.Duration
	for _, tq := range d.tlds.snapshot() {
		tq.mu.Lock()
		s.Pending += tq.pending
		if tq.maxDepth > s.MaxDepth {
			s.MaxDepth = tq.maxDepth
		}
		latencySum += tq.latencySum
		tq.mu.Unlock()
		s.TLDs++
	}
	if s.Completed > 0 {
		s.AvgLatency = latencySum / time.Duration(s.Completed)
	}
	return s
}

// TLDDispatchStats is one TLD queue's counters.
type TLDDispatchStats struct {
	TLD        string
	Pending    int
	MaxDepth   int
	Completed  int64
	Shed       int64
	AvgLatency time.Duration
}

// TLDStats returns per-queue counters, sorted by TLD.
func (d *Dispatcher) TLDStats() []TLDDispatchStats {
	dir := d.tlds.snapshot()
	out := make([]TLDDispatchStats, 0, len(dir))
	for _, tq := range dir {
		tq.mu.Lock()
		st := TLDDispatchStats{
			TLD: tq.tld, Pending: tq.pending, MaxDepth: tq.maxDepth,
			Completed: tq.completed, Shed: tq.shed,
		}
		if tq.completed > 0 {
			st.AvgLatency = tq.latencySum / time.Duration(tq.completed)
		}
		tq.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TLD < out[j].TLD })
	return out
}
