package feed

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"darkdns/internal/stream"
)

// Subscriptions and tenants. A subscription is a cursor on the server's
// encoded log: a catch-up replay and the live tail are the same read by
// offset, and the registry is touched only when a subscription starts or
// ends and by Stats and Close.

// ErrSlowConsumer closes a live subscriber whose cursor fell more than
// QueueBound behind the head under the ShedDisconnect policy.
var ErrSlowConsumer = errors.New("feed: slow consumer")

// ShedPolicy selects what happens when a live subscriber's cursor falls
// more than QueueBound behind the head.
type ShedPolicy int

const (
	// ShedDropOldest skips the cursor to QueueBound behind the head and
	// marks the hole with a GAP frame — the subscriber stays connected
	// near the live edge.
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

// subscriber is one subscription: a cursor on the server's encoded log
// and the shed rule that bounds how far a live cursor may lag the head.
// Its delivery goroutine alone calls take.
type subscriber struct {
	tenant *tenant
	log    *stream.Log[wireEntry]
	cur    *stream.Consumer[wireEntry]
	bound  int64
	policy ShedPolicy

	// live is set the first time take finds the cursor caught up. The shed
	// rule applies from then on, so a catch-up replay is never shed.
	live bool

	// pos is the cursor's offset once live (-1 before) and maxLag the
	// deepest lag take has seen; Stats reads both.
	pos, maxLag atomic.Int64

	stop   chan struct{}
	once   sync.Once
	reason error // why stop was closed: nil for an unsubscribe
}

// newSubscriber opens a cursor on log at offset from. A read takes at
// most BatchMax entries, and at most QueueBound, so that a live writer
// never holds more entries than the lag it is allowed.
func newSubscriber(tn *tenant, log *stream.Log[wireEntry], from int64, cfg ServerConfig) *subscriber {
	sub := &subscriber{
		tenant: tn, log: log, cur: log.Consumer(from, min(cfg.BatchMax, cfg.QueueBound)),
		bound: int64(cfg.QueueBound), policy: cfg.ShedPolicy, stop: make(chan struct{}),
	}
	sub.pos.Store(-1)
	return sub
}

// take returns the cursor's next batch, at most BatchMax (and QueueBound)
// entries from one page of the log, and in front of it the GAP of any range the shed
// policy skipped: a live cursor more than bound behind the head moves to
// head-bound under drop-oldest, and is cut with ErrSlowConsumer under
// disconnect. A caught-up cursor waits up to timeout (the heartbeat
// interval) for an append and returns no entries when none comes. ok is
// false once the subscription is closed, with err its reason. The batch
// aliases the log, whose entries never change.
func (sub *subscriber) take(timeout time.Duration) (ents []wireEntry, gap *Gap, ok bool, err error) {
	select {
	case <-sub.stop:
		return nil, nil, false, sub.reason
	default:
	}
	if lag := sub.log.Len() - sub.cur.Offset(); lag <= 0 || sub.live {
		sub.live = true
		if lag > sub.bound {
			if sub.policy == ShedDisconnect {
				return nil, nil, false, ErrSlowConsumer
			}
			from, to := sub.cur.Offset(), sub.cur.Offset()+lag-sub.bound
			gap = &Gap{From: from, To: to - 1, Dropped: to - from, Reason: "shed"}
			sub.cur.SetOffset(to)
			lag = sub.bound
		}
		if lag > sub.maxLag.Load() {
			sub.maxLag.Store(lag)
		}
	}
	ents, ok = sub.cur.WaitNext(sub.stop, timeout)
	if sub.live {
		sub.pos.Store(sub.cur.Offset())
	}
	if !ok {
		select {
		case <-sub.stop:
			return nil, nil, false, sub.reason
		default:
		}
	}
	return ents, gap, true, nil
}

// close ends the subscription with reason (nil for an orderly
// unsubscribe): take reports it, and a waiting take wakes at once.
func (sub *subscriber) close(reason error) {
	sub.once.Do(func() {
		sub.reason = reason
		close(sub.stop)
	})
}

// tenant is one tenant's admission state: a subscriber count checked
// against the cap, and a token bucket throttling delivered entries/s
// shared by all of the tenant's subscriptions.
type tenant struct {
	name string
	subs int // live subscriptions, guarded by the registry's mu

	mu     sync.Mutex
	rate   float64 // entries/s; 0 = unlimited
	tokens float64
	last   time.Time
}

// reserve books n entries against the tenant's rate, returning how long
// the caller must wait before sending them. The bucket holds at most one
// second of burst; a blocked writer falls behind and the shed policy
// takes over — rate-limited tenants degrade exactly like slow
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

// registry is the tenant table plus the set of live subscriptions,
// which Stats and Close walk. Delivery never reads it.
type registry struct {
	mu      sync.Mutex
	tenants map[string]*tenant
	subs    map[*subscriber]struct{}

	maxSubsPerTenant int
	tenantRate       float64
}

func newRegistry(maxSubsPerTenant int, tenantRate float64) *registry {
	return &registry{
		tenants: make(map[string]*tenant), subs: make(map[*subscriber]struct{}),
		maxSubsPerTenant: maxSubsPerTenant, tenantRate: tenantRate,
	}
}

// tenant resolves (or creates) the named tenant.
func (r *registry) tenant(name string) *tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	tn := r.tenants[name]
	if tn == nil {
		tn = &tenant{name: name, rate: r.tenantRate}
		r.tenants[name] = tn
	}
	return tn
}

// add admits sub, enforcing its tenant's subscriber cap.
func (r *registry) add(sub *subscriber) *protoError {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.maxSubsPerTenant > 0 && sub.tenant.subs >= r.maxSubsPerTenant {
		return &protoError{CodeTenantLimit, "tenant subscriber cap reached"}
	}
	sub.tenant.subs++
	r.subs[sub] = struct{}{}
	return nil
}

// remove deregisters a subscriber; removing one twice is harmless.
func (r *registry) remove(sub *subscriber) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.subs[sub]; ok {
		delete(r.subs, sub)
		sub.tenant.subs--
	}
}

// closeAll ends every subscription with reason (server close).
func (r *registry) closeAll(reason error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for sub := range r.subs {
		sub.close(reason)
	}
}

// count returns the subscriber and tenant totals, and the live cursors'
// summed and deepest lag behind head.
func (r *registry) count(head int64) (subs, tenants, lag, maxLag int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for sub := range r.subs {
		if pos := sub.pos.Load(); pos >= 0 {
			lag += int(max(head-pos, 0))
		}
		maxLag = max(maxLag, int(sub.maxLag.Load()))
	}
	return len(r.subs), len(r.tenants), lag, maxLag
}
