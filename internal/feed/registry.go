package feed

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Subscriber registry: the fan-out tier's directory of live delivery
// queues. Sharded so the pump's broadcast and concurrent subscribe /
// unsubscribe traffic never contend on one lock: each shard is a
// copy-on-write map (cow.go), so the broadcast path reads a snapshot
// without locking while sessions churn.

// registryShards is the fixed shard count. Subscriber ids are a counter,
// so id%shards spreads sessions uniformly.
const registryShards = 16

// ErrSlowConsumer closes a subscriber whose queue overflowed under the
// ShedDisconnect policy.
var ErrSlowConsumer = errors.New("feed: slow consumer")

// ShedPolicy selects what happens when a subscriber's bounded queue
// overflows.
type ShedPolicy int

const (
	// ShedDropOldest evicts the oldest queued entries and marks the hole
	// with a GAP frame — the subscriber stays connected at the live edge.
	ShedDropOldest ShedPolicy = iota
	// ShedDisconnect terminates the subscriber with a slow_consumer
	// error frame.
	ShedDisconnect
)

// String names the policy for flags and logs.
func (p ShedPolicy) String() string {
	if p == ShedDisconnect {
		return "disconnect"
	}
	return "drop-oldest"
}

// ParseShedPolicy parses a -shed-policy flag value.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "drop-oldest", "":
		return ShedDropOldest, nil
	case "disconnect":
		return ShedDisconnect, nil
	}
	return 0, errors.New("feed: shed policy must be drop-oldest or disconnect")
}

// subQueue is one subscriber's bounded live-delivery queue. The pump
// offers each batch it has just appended to the encoded log; the session
// writer takes them.
// Overflow applies the shed policy and, for drop-oldest, accumulates the
// evicted offset range so the writer can emit one coalesced GAP frame.
type subQueue struct {
	mu     sync.Mutex
	buf    []wireEntry
	bound  int
	policy ShedPolicy

	// taken is the batch the last take handed the writer. The writer is
	// done with it at its next take, which makes it the buffer the
	// following offers fill, so the two arrays alternate.
	taken []wireEntry

	// live gates the pump: during a subscriber's catch-up replay the
	// queue rejects offers (the writer reads the encoded log directly),
	// so long replays do not churn the queue.
	live bool

	// shedFrom/shedTo is the pending evicted range (inclusive); -1 when
	// none. Consecutive evictions merge because the queue holds a
	// contiguous offset run.
	shedFrom, shedTo int64

	closed bool
	reason error
	signal chan struct{} // 1-buffered wakeup for the writer
	timer  *time.Timer   // take's heartbeat timer: the writer's, reused

	maxDepth int // deepest backlog observed, for Stats
}

func newSubQueue(bound int, policy ShedPolicy) *subQueue {
	return &subQueue{bound: bound, policy: policy, shedFrom: -1, shedTo: -1, signal: make(chan struct{}, 1)}
}

// offer enqueues ents for a live subscriber, applying the shed policy on
// overflow. It copies the entries, into the array the writer handed back,
// but not their encodings, which belong to the server's encoded log and
// never change. It never blocks — the fan-out pump must not stall on one
// slow subscriber (the athena-dhcpd event-bus rule).
// Returns the number of entries evicted (drop-oldest) for the server's
// shed counter.
func (q *subQueue) offer(ents []wireEntry) int64 {
	if len(ents) == 0 {
		return 0
	}
	q.mu.Lock()
	if q.closed || !q.live {
		q.mu.Unlock()
		return 0
	}
	q.buf = append(q.buf, ents...)
	var evicted int64
	if over := len(q.buf) - q.bound; over > 0 {
		if q.policy == ShedDisconnect {
			q.closed = true
			q.reason = ErrSlowConsumer
			q.buf = nil
		} else {
			drop := q.buf[:over]
			if q.shedFrom < 0 {
				q.shedFrom = drop[0].off
			}
			q.shedTo = drop[over-1].off
			evicted = int64(over)
			q.buf = append(q.buf[:0], q.buf[over:]...)
		}
	}
	if len(q.buf) > q.maxDepth {
		q.maxDepth = len(q.buf)
	}
	q.mu.Unlock()
	select {
	case q.signal <- struct{}{}:
	default:
	}
	return evicted
}

// goLive flips the queue into live mode; offers before this are dropped
// because the writer is replaying from the encoded log, which the pump
// appends to before it offers.
func (q *subQueue) goLive() {
	q.mu.Lock()
	q.live = true
	q.mu.Unlock()
}

// take removes everything queued, returning the batch, any pending shed
// gap, and ok=false once the queue is closed and drained. When nothing is
// queued it waits up to timeout (the heartbeat interval) for an offer.
// The batch is valid until the next take, which reuses its array; one
// writer calls take.
func (q *subQueue) take(timeout time.Duration) (ents []wireEntry, gap *Gap, ok bool, err error) {
	deadline := time.Now().Add(timeout)
	for {
		q.mu.Lock()
		if len(q.buf) > 0 || q.shedFrom >= 0 {
			ents = q.buf
			q.buf, q.taken = q.taken[:0], ents
			if q.shedFrom >= 0 {
				gap = &Gap{From: q.shedFrom, To: q.shedTo, Dropped: q.shedTo - q.shedFrom + 1, Reason: "shed"}
				q.shedFrom, q.shedTo = -1, -1
			}
			q.mu.Unlock()
			return ents, gap, true, nil
		}
		if q.closed {
			reason := q.reason
			q.mu.Unlock()
			return nil, nil, false, reason
		}
		q.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, nil, true, nil
		}
		if q.timer == nil {
			q.timer = time.NewTimer(remain)
		} else {
			q.timer.Reset(remain)
		}
		select {
		case <-q.signal:
			q.timer.Stop()
		case <-q.timer.C:
			return nil, nil, true, nil
		}
	}
}

// close shuts the queue down with reason (nil for an orderly
// unsubscribe); the writer drains what is already buffered and exits.
func (q *subQueue) close(reason error) {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		q.reason = reason
	}
	q.mu.Unlock()
	select {
	case q.signal <- struct{}{}:
	default:
	}
}

// isClosed reports whether close has been called (replay loops poll it).
func (q *subQueue) isClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// depth reports the current backlog (Stats).
func (q *subQueue) depth() (cur, max int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf), q.maxDepth
}

// subscriber is one live subscription's registry entry.
type subscriber struct {
	id     uint64
	tenant *tenant
	queue  *subQueue
}

// tenant is one tenant's admission state: a subscriber count checked
// against the cap, and a token bucket throttling delivered entries/s
// shared by all of the tenant's subscriptions.
type tenant struct {
	name string
	subs atomic.Int64

	mu     sync.Mutex
	rate   float64 // entries/s; 0 = unlimited
	tokens float64
	last   time.Time
}

// reserve books n entries against the tenant's rate, returning how long
// the caller must wait before sending them. The bucket holds at most one
// second of burst; a blocked writer falls behind and the queue's shed
// policy takes over — rate-limited tenants degrade exactly like slow
// consumers.
func (t *tenant) reserve(n int, now time.Time) time.Duration {
	if t.rate <= 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.last.IsZero() {
		t.last = now
		t.tokens = t.rate // one second of initial burst
	}
	t.tokens += now.Sub(t.last).Seconds() * t.rate
	t.last = now
	if t.tokens > t.rate {
		t.tokens = t.rate
	}
	t.tokens -= float64(n)
	if t.tokens >= 0 {
		return 0
	}
	return time.Duration(-t.tokens / t.rate * float64(time.Second))
}

// registry is the sharded subscriber directory plus the tenant table.
type registry struct {
	shards  [registryShards]cowMap[uint64, *subscriber]
	tenants cowMap[string, *tenant]
	nextID  atomic.Uint64

	maxSubsPerTenant int
	tenantRate       float64
}

func newRegistry(maxSubsPerTenant int, tenantRate float64) *registry {
	return &registry{maxSubsPerTenant: maxSubsPerTenant, tenantRate: tenantRate}
}

// tenant resolves (or creates) the named tenant.
func (r *registry) tenant(name string) *tenant {
	return r.tenants.getOrCreate(name, func() *tenant {
		return &tenant{name: name, rate: r.tenantRate}
	})
}

// add admits a subscriber for tenant tn, enforcing the per-tenant cap.
func (r *registry) add(tn *tenant, q *subQueue) (*subscriber, *protoError) {
	if r.maxSubsPerTenant > 0 {
		if tn.subs.Add(1) > int64(r.maxSubsPerTenant) {
			tn.subs.Add(-1)
			return nil, &protoError{CodeTenantLimit, "tenant subscriber cap reached"}
		}
	} else {
		tn.subs.Add(1)
	}
	sub := &subscriber{id: r.nextID.Add(1), tenant: tn, queue: q}
	r.shards[sub.id%registryShards].set(sub.id, sub)
	return sub, nil
}

// remove deregisters a subscriber; idempotent via the COW delete.
func (r *registry) remove(sub *subscriber) {
	shard := &r.shards[sub.id%registryShards]
	if _, ok := shard.get(sub.id); !ok {
		return
	}
	shard.delete(sub.id)
	sub.tenant.subs.Add(-1)
}

// broadcast offers ents to every live subscriber, returning the total
// entries evicted by drop-oldest shedding. Reads are lock-free snapshots.
func (r *registry) broadcast(ents []wireEntry) int64 {
	var shed int64
	for i := range r.shards {
		for _, sub := range r.shards[i].snapshot() {
			shed += sub.queue.offer(ents)
		}
	}
	return shed
}

// closeAll shuts every subscriber queue down with reason (server close).
func (r *registry) closeAll(reason error) {
	for i := range r.shards {
		for _, sub := range r.shards[i].snapshot() {
			sub.queue.close(reason)
		}
	}
}

// count returns the live subscriber total and the per-shard max depth
// scan used by Stats.
func (r *registry) count() (subs int, queued, maxDepth int) {
	for i := range r.shards {
		for _, sub := range r.shards[i].snapshot() {
			subs++
			cur, max := sub.queue.depth()
			queued += cur
			if max > maxDepth {
				maxDepth = max
			}
		}
	}
	return subs, queued, maxDepth
}

// tenantCount returns how many tenants have registered.
func (r *registry) tenantCount() int { return len(r.tenants.snapshot()) }
