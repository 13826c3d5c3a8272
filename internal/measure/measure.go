// Package measure implements the paper's reactive measurement
// infrastructure (step 3): on first observation of a domain, a fleet of
// workers issues A, AAAA and NS queries every 10 minutes for the domain's
// first 48 hours. NS queries go directly to the TLD authoritative
// nameservers so that zone removal is detected precisely (and lame
// delegations are not misread as deletions). A and AAAA go through
// caching resolvers clamped to a 60-second TTL.
//
// Scheduling is round-coalesced: instead of one clock event per probe
// per domain (≈290 heap events per watched domain over 48 h), the fleet
// arms a single clock event per 10-minute round and probes every active
// watch in that round. Stage 1 has one path: the round's watch set is cut
// into contiguous admission-ordered slices and each slice is one
// BatchBackend.ProbeBatch call on the fleet's pool (a backend without
// ProbeBatch is wrapped once, in NewFleet, by an adapter that makes the
// per-domain calls) — backend reads are side-effect-free, so slices
// resolve concurrently. Then states update and observers fire in
// watch-admission order, which is exactly the delivery order the
// per-domain scheduler produced. Event count per campaign therefore
// scales with rounds, not probes, and the round's working memory is
// owned by the fleet and reused from round to round.
//
// Stage 2 of a round has one path too (DESIGN.md §14): once the round's
// probes are in, per-domain state applies run over the same contiguous
// slices cut at the apply width — applies of distinct domains commute and
// stripe onto the watch registry's shard locks — and then observers fire
// on the round goroutine in admission order.
//
// Concurrency model (DESIGN.md §7): the watch registry is sharded 32
// ways with copy-on-write observer lists; round probe batches and applies
// fan out on workpool at the widths workpool.Engines declares.
// Determinism contract: because probes are side-effect-free reads, a
// domain appears once per round and delivery stays in admission order,
// fleet reports are byte-identical at any width and clock drain setting.
package measure

import (
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"darkdns/internal/dnsname"
	"darkdns/internal/rdap"
	"darkdns/internal/simclock"
	"darkdns/internal/workpool"
)

// Backend is the fleet's view of the DNS. The simulation wires it to
// registries and hosting tables in-process; integration tests wire it to
// real resolvers talking UDP to dnsserver instances.
//
// Returned slices are shared and read-only: a backend may hand out the
// same slice on every call (the simulation's answers are built once per
// domain), and the fleet passes V4/V6 through to Observation and
// DomainState without copying. Neither side may modify a slice after it
// crosses this interface; a backend whose answer changes returns a new
// slice. NS answers may arrive in any order — the fleet sorts a copy of
// its own, never the backend's slice.
type Backend interface {
	// AuthoritativeNS asks the TLD authoritative servers for domain's
	// delegation. ok=false means NXDOMAIN (removed from zone).
	AuthoritativeNS(domain string) (ns []string, ok bool)
	// LookupA resolves IPv4 addresses through the caching resolver path.
	LookupA(domain string) []netip.Addr
	// LookupAAAA resolves IPv6 addresses.
	LookupAAAA(domain string) []netip.Addr
}

// ProbeResult is one domain's answers within a probe batch. Its slices
// follow Backend's sharing contract: shared, read-only.
type ProbeResult struct {
	InZone bool
	NS     []string
	V4, V6 []netip.Addr
	// MX and TXT are filled only when the batch asked for mail records.
	MX, TXT []string
}

// BatchBackend is the optional Backend extension every probe goes
// through: one call resolves a whole slice of domains, so the backend
// can answer each name in a single pass and pipeline the underlying
// queries (resolver.LookupBatch over pooled sockets on the wire, plain
// reads in the simulation) instead of paying per-domain call overhead.
// A Backend without it is adapted in NewFleet. mail asks for MX/TXT
// answers alongside the DNS-infrastructure records. Results are
// positional. Probes are reads: implementations must be side-effect-
// free so batch boundaries stay unobservable. domains is a window of the
// fleet's reusable round buffer, valid only until the call returns.
type BatchBackend interface {
	ProbeBatch(domains []string, mail bool) []ProbeResult
}

// MailBackend is the optional extension backend for the paper's
// future-work measurements ("we plan to expand our measurements beyond
// DNS infrastructure records, including mail extensions (e.g., SPF, MX)").
// Fleets probe mail records when their Backend also implements it and
// Config.ProbeMail is set. Returned slices follow Backend's sharing
// contract: shared, read-only.
type MailBackend interface {
	// LookupMX resolves mail exchangers.
	LookupMX(domain string) []string
	// LookupTXT resolves TXT strings (SPF policies live here).
	LookupTXT(domain string) []string
}

// Observation is one probe result. Its slices are read-only: NS is shared
// with the domain's state and with every later observation of an
// unchanged delegation, V4/V6 with the backend.
type Observation struct {
	Domain string
	Worker int
	At     time.Time
	NS     []string // sorted; nil when the domain is out of the zone
	InZone bool
	V4     []netip.Addr
	V6     []netip.Addr
}

// DomainState aggregates a domain's probe history.
type DomainState struct {
	Domain      string
	Started     time.Time
	Probes      int
	FirstNS     []string     // delegation at first successful probe
	LastNS      []string     // most recent delegation seen
	FirstV4     []netip.Addr // first non-empty A answer
	NSChanged   bool         // delegation differed between probes
	NSChangedAt time.Time    // first probe at which the delegation differed
	HasMX       bool         // any probe returned MX records
	HasSPF      bool         // any probe returned an SPF TXT policy
	EverInZone  bool
	LastAliveAt time.Time // last probe with a valid NS answer
	DeadAt      time.Time // first probe with NXDOMAIN after being alive
	Finished    bool      // 48-hour window elapsed (or StopWhenDead hit)

	worker int         // fleet worker assigned to this domain's probes
	shard  *watchShard // registry stripe guarding this state, resolved once at Watch
}

// RevalidatePolicy decouples probe cadence from record TTL, after Afek
// & Litmanovich's TTL-decoupled revalidation: instead of hardcoding the
// paper's 10-minute round, the cadence is an operator knob — a shorter
// cadence trades probe volume for detection latency, a longer one the
// reverse — while the 60-second resolver TTL clamp stays fixed, so
// cache freshness and probe schedule are independent policies.
type RevalidatePolicy struct {
	// Cadence is the coalesced round interval. 0 keeps Config.Interval
	// (the paper's 10 minutes by default).
	Cadence time.Duration
}

// Config parameterizes the fleet.
type Config struct {
	Workers  int           // paper: 16
	Interval time.Duration // paper: 10 minutes
	Window   time.Duration // paper: 48 hours
	// Engines carries the concurrency settings; the fleet reads
	// ProbeWorkers (stage 1) and ApplyWorkers (stage 2).
	workpool.Engines
	// Revalidate is the probe-cadence policy; its Cadence, when set,
	// overrides Interval.
	Revalidate RevalidatePolicy
	// StopWhenDead ends a domain's schedule at its first post-life
	// NXDOMAIN instead of completing the 48-hour window. Post-death
	// probes carry no analytical signal, so large-scale simulation runs
	// enable this purely as a scheduling optimization; the paper-accurate
	// default keeps probing.
	StopWhenDead bool
	// ProbeMail additionally queries MX and TXT on each round when the
	// backend supports it (the paper's future-work extension).
	ProbeMail bool
}

// DefaultConfig returns the paper's measurement parameters.
func DefaultConfig() Config {
	return Config{Workers: 16, Interval: 10 * time.Minute, Window: 48 * time.Hour}
}

// watchShards is the number of independent locks the watch registry is
// striped over. Watch admissions and probe-tick state updates hash to a
// shard, so a burst of Watch calls from parallel ingest does not contend
// with the fleet's own probe ticks. Power of two for cheap masking.
const watchShards = 32

// watchShard is one stripe of the registry.
type watchShard struct {
	mu     sync.Mutex
	states map[string]*DomainState
}

// Fleet schedules and aggregates reactive probes.
type Fleet struct {
	cfg    Config
	clk    simclock.Clock
	tagClk simclock.TagScheduler // clk's effect-tagged extension; nil without lookahead support
	// backend answers every probe, a slice of names per call: the
	// caller's own ProbeBatch, or the per-domain adapter over a plain
	// Backend. probeMail is Config.ProbeMail narrowed to backends that
	// can answer it.
	backend   BatchBackend
	probeMail bool

	// watchMask is the union of every watched domain's effect atom
	// (simclock.DomainTag), OR-accumulated at admission and never
	// cleared. Round events are tagged with this mask via a TagAt
	// closure, so the lookahead drain sees exactly which state a round
	// may touch at the instant the round is considered for speculation.
	// Monotone growth is the conservative direction: a retired watch's
	// atom lingering in the mask can only cause a spurious conflict,
	// never a missed one. Probe reads against registries are keyed by
	// domain, so two events with disjoint masks commute.
	watchMask atomic.Uint64

	shards  [watchShards]watchShard
	nextSeq atomic.Int64 // watch admissions: ordering + worker assignment
	active  atomic.Int64 // unfinished watches; rounds stay armed while > 0

	// watchList is the admission-ordered registry the round scheduler
	// iterates — Watch appends, dueTargets skips retired entries and
	// compacts once they dominate, so a round never re-sorts or walks
	// the shard maps. Guarded by watchMu; never locked while holding a
	// shard lock.
	watchMu   sync.Mutex
	watchList []*DomainState

	// Round scheduler: one clock event serves every due domain. armed
	// guards against double-arming when Watch races the round callback,
	// and stays set until the round it armed has finished — so at most
	// one round runs at a time and buf needs no lock of its own.
	roundMu sync.Mutex
	armed   bool
	buf     roundBuf // round's working memory, reused across rounds

	rounds   atomic.Int64 // coalesced rounds executed
	maxRound atomic.Int64 // widest round (domains probed in one event)

	// observers is a copy-on-write list: registrations are rare and
	// serialized by obsMu, probe ticks read it lock-free.
	obsMu     sync.Mutex
	observers atomic.Pointer[[]func(Observation)]
}

// NewFleet creates a fleet over backend using clk for scheduling.
func NewFleet(cfg Config, clk simclock.Clock, backend Backend) *Fleet {
	if cfg.Workers <= 0 {
		cfg.Workers = 16
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Minute
	}
	if cfg.Revalidate.Cadence > 0 {
		cfg.Interval = cfg.Revalidate.Cadence
	}
	if cfg.Window <= 0 {
		cfg.Window = 48 * time.Hour
	}
	mb, hasMail := backend.(MailBackend)
	bb, ok := backend.(BatchBackend)
	if !ok {
		bb = perDomain{backend, mb}
	}
	f := &Fleet{cfg: cfg, clk: clk, backend: bb, probeMail: cfg.ProbeMail && hasMail}
	f.tagClk, _ = clk.(simclock.TagScheduler)
	for i := range f.shards {
		f.shards[i].states = make(map[string]*DomainState)
	}
	return f
}

// shard maps a canonical domain to its registry stripe.
func (f *Fleet) shard(domain string) *watchShard {
	return &f.shards[dnsname.Hash64(domain)&(watchShards-1)]
}

// OnObservation registers fn to receive every probe result (the pipeline
// feeds these into its Kafka topic). Observers run on the round's own
// goroutine, in admission order, after every state apply of the round: an
// observation reflects exactly its own domain's post-apply state (a
// domain appears once per round), and the round's other domains already
// show theirs.
func (f *Fleet) OnObservation(fn func(Observation)) {
	f.obsMu.Lock()
	defer f.obsMu.Unlock()
	var cur []func(Observation)
	if p := f.observers.Load(); p != nil {
		cur = *p
	}
	next := make([]func(Observation), len(cur)+1)
	copy(next, cur)
	next[len(cur)] = fn
	f.observers.Store(&next)
}

// Watch begins the 48-hour probe schedule for domain. Re-watching an
// already-watched domain is a no-op. The first probe fires immediately
// (detection triggers the watch, as in the paper); subsequent probes
// ride the fleet's coalesced rounds.
func (f *Fleet) Watch(domain string) {
	domain = dnsname.Canonical(domain)
	now := f.clk.Now()
	sh := f.shard(domain)
	sh.mu.Lock()
	if _, ok := sh.states[domain]; ok {
		sh.mu.Unlock()
		return
	}
	st := &DomainState{
		Domain:  domain,
		Started: now,
		worker:  int(f.nextSeq.Add(1)-1) % f.cfg.Workers,
		shard:   sh,
	}
	sh.states[domain] = st
	sh.mu.Unlock()
	f.active.Add(1)
	atom := uint64(simclock.DomainTag(domain))
	for {
		old := f.watchMask.Load()
		if old&atom == atom || f.watchMask.CompareAndSwap(old, old|atom) {
			break
		}
	}

	// The admission probe fires before the state joins watchList: under
	// the real-time clock a round on the timer goroutine could otherwise
	// snapshot the list mid-admission and probe the same state
	// concurrently. Under a Sim clock Watch runs inside a clock event,
	// so the ordering is unobservable there. The probe works in memory
	// of its own, never the round's buf: a round may be in flight on
	// another goroutine (real-time clock, or a Sim drained with a pool).
	var one struct {
		target [1]*DomainState
		name   [1]string
		result [1]roundResult
	}
	one.target[0] = st
	f.probeRound(roundBuf{one.target[:], one.name[:], one.result[:]}, now)
	f.watchMu.Lock()
	f.watchList = append(f.watchList, st)
	f.watchMu.Unlock()
	f.armRound(now)
}

// armRound schedules the next coalesced probe round while any watch is
// active: one clock event per interval serves every due domain, which is
// what collapses the fleet's event count from probes to rounds. When the
// last watch retires the chain disarms, so a fully-drained clock stays
// drained. now is the caller's own instant (its firing time under a Sim
// clock), never re-read from the clock — round events fire speculatively
// under the lookahead drain, where Clock.Now lags at the last barrier.
//
// On a tag-scheduling clock the round event carries the live watch mask
// via a TagAt closure: the mask is read at scan time, not arm time, so
// watches admitted between arming and firing are still covered.
func (f *Fleet) armRound(now time.Time) {
	f.roundMu.Lock()
	if f.armed || f.active.Load() == 0 {
		f.roundMu.Unlock()
		return
	}
	f.armed = true
	f.roundMu.Unlock()
	if f.tagClk != nil {
		f.tagClk.ScheduleTagged(simclock.TaggedTimed{
			At:    now.Add(f.cfg.Interval),
			TagAt: func() simclock.EffectTag { return simclock.EffectTag(f.watchMask.Load()) },
			Fn:    f.round,
		})
		return
	}
	f.clk.After(f.cfg.Interval, func() { f.round(f.clk.Now()) })
}

// round is the per-interval clock event: snapshot the active watch set
// into the fleet's round buffer, probe it as one batch, re-arm while work
// remains. now is the event's firing instant, passed by the scheduler
// (time-explicit contract). armed is released only once the round is
// over: a Watch racing it finds the chain still armed and schedules
// nothing, and the round re-arms on its way out — so no second round can
// start while buf is in use.
func (f *Fleet) round(now time.Time) {
	f.dueTargets(now)
	if n := len(f.buf.targets); n > 0 {
		f.rounds.Add(1)
		workpool.AtomicMax(&f.maxRound, int64(n))
		f.buf.names = slices.Grow(f.buf.names[:0], n)[:n]
		f.buf.results = slices.Grow(f.buf.results[:0], n)[:n]
		f.probeRound(f.buf, now)
		// Delivered: drop the round's references so the buffer pins
		// neither retired states nor superseded answers until next round.
		clear(f.buf.targets)
		clear(f.buf.names)
		clear(f.buf.results)
	}
	f.retireElapsed(now.Add(f.cfg.Interval))

	f.roundMu.Lock()
	f.armed = false
	f.roundMu.Unlock()
	f.armRound(now)
}

// retireElapsed applies the next round's retirement predicate one
// interval early: any watch whose window will have elapsed by next is
// retired now, instead of arming one more round event whose only work
// would be that retirement. The predicate is exactly what dueTargets
// would evaluate at the next round's instant before probing, so no probe
// is ever skipped — the trailing, probe-free round event simply never
// exists, and a campaign's final event leaves the clock drained.
func (f *Fleet) retireElapsed(next time.Time) {
	f.watchMu.Lock()
	defer f.watchMu.Unlock()
	for _, st := range f.watchList {
		sh := st.shard
		sh.mu.Lock()
		if !st.Finished && next.Sub(st.Started) > f.cfg.Window {
			st.Finished = true
			f.active.Add(-1)
		}
		sh.mu.Unlock()
	}
}

// dueTargets snapshots the active watch set into buf.targets, retiring
// watches whose 48-hour window has elapsed. watchList is already in
// admission order, so no per-round sort or shard-map walk is needed;
// retired entries compact away once they outnumber the living.
func (f *Fleet) dueTargets(now time.Time) {
	f.watchMu.Lock()
	defer f.watchMu.Unlock()
	due := f.buf.targets[:0]
	for _, st := range f.watchList {
		sh := st.shard
		sh.mu.Lock()
		fin := st.Finished
		if !fin && now.Sub(st.Started) > f.cfg.Window {
			st.Finished = true
			fin = true
			f.active.Add(-1)
		}
		sh.mu.Unlock()
		if !fin {
			due = append(due, st)
		}
	}
	if len(due)*2 < len(f.watchList) {
		f.watchList = append(make([]*DomainState, 0, len(due)), due...)
	}
	f.buf.targets = due
}

// roundResult is one domain's resolved probe within a batch. Between the
// probe stage and apply, obs.NS is the backend's raw answer (its slice,
// its order); apply replaces it with the fleet-owned sorted form before
// any observer sees it.
type roundResult struct {
	obs Observation
	mx  []string
	txt []string
}

// roundBuf is the working memory of one probe round, three positional
// slices of equal length: the due watches in admission order, their
// names as handed to ProbeBatch, and the results. Fleet.round reuses one
// across rounds; Watch brings a one-slot buffer of its own.
type roundBuf struct {
	targets []*DomainState
	names   []string
	results []roundResult
}

// perDomain adapts a Backend without ProbeBatch to BatchBackend: the
// per-domain calls that make up one probe are issued here, name by name,
// so the fleet itself has a single stage-1 path. Address and mail records
// are asked only of names the TLD still delegates.
type perDomain struct {
	Backend
	mail MailBackend // nil when the backend has no mail extension
}

func (p perDomain) ProbeBatch(domains []string, mail bool) []ProbeResult {
	out := make([]ProbeResult, len(domains))
	for i, d := range domains {
		pr := &out[i]
		pr.NS, pr.InZone = p.AuthoritativeNS(d)
		if !pr.InZone {
			continue
		}
		pr.V4 = p.LookupA(d)
		pr.V6 = p.LookupAAAA(d)
		if mail && p.mail != nil {
			pr.MX = p.mail.LookupMX(d)
			pr.TXT = p.mail.LookupTXT(d)
		}
	}
	return out
}

// probeRound executes one coalesced measurement round over buf, in three
// phases. probeStage resolves the whole batch, slice by slice, through
// ProbeBatch; backend reads are side-effect-free, so execution order is
// unobservable. applyStage records every result into its domain's state.
// Then observers fire in watch-admission order, the order the per-domain
// scheduler produced — so probe and apply width never reorder an
// observable, and campaigns stay byte-identical across widths and clock
// drains. Observers receive each Observation by value, so buf is free for
// reuse as soon as probeRound returns.
func (f *Fleet) probeRound(buf roundBuf, now time.Time) {
	// An empty round makes no backend call and divides by no slice
	// count. A StopWhenDead campaign whose active set empties mid-flight
	// is the path that lands here.
	if len(buf.targets) == 0 {
		return
	}
	f.probeStage(buf, now)
	f.applyStage(buf, now)
	if obsFns := f.observers.Load(); obsFns != nil {
		for i := range buf.results {
			for _, fn := range *obsFns {
				fn(buf.results[i].obs)
			}
		}
	}
}

// minSlice is the shortest slice worth a goroutine and a ProbeBatch call
// of its own when the fleet chooses the slice count (ProbeWorkers == 0):
// each slice costs a result slab and a goroutine, every round, so slices
// are sized for the round rather than dealt one per pool worker. A
// constant, not a knob.
const minSlice = 256

// sliceCount returns how many contiguous slices a round of n ≥ 1 targets
// is cut into: ProbeWorkers when set, else one per minSlice targets up to
// the pool width; at least one, never more than n.
func (f *Fleet) sliceCount(n int) int {
	w := f.cfg.ProbeWorkers
	if w <= 0 {
		w = min(n/minSlice, f.cfg.Workers)
	}
	return max(1, min(w, n))
}

// probeStage is stage 1 of a round, the fleet's one probe path: the
// target list is cut into contiguous slices (admission order preserved
// inside each) and each slice is submitted as one ProbeBatch call on its
// own pool goroutine, letting the backend answer every name of the
// sub-batch in one pass over shared state or transport. Results are
// positional — slot j of slice [lo, hi) lands in results[lo+j] — and
// mail fields are copied only when the probe is in-zone, so a backend
// that answers MX/TXT for out-of-zone names cannot diverge the campaign.
func (f *Fleet) probeStage(buf roundBuf, now time.Time) {
	n := len(buf.targets)
	w := f.sliceCount(n)
	workpool.Run(w, w, func(s int) {
		lo, hi := s*n/w, (s+1)*n/w
		names := buf.names[lo:hi]
		for j, st := range buf.targets[lo:hi] {
			names[j] = st.Domain
		}
		for j, pr := range f.backend.ProbeBatch(names, f.probeMail) {
			st := buf.targets[lo+j]
			r := roundResult{obs: Observation{Domain: st.Domain, Worker: st.worker, At: now, InZone: pr.InZone}}
			if pr.InZone {
				r.obs.NS = pr.NS
				r.obs.V4 = pr.V4
				r.obs.V6 = pr.V6
				if f.probeMail {
					r.mx = pr.MX
					r.txt = pr.TXT
				}
			}
			buf.results[lo+j] = r
		}
	})
}

// applyStage is stage 2 of a round: every result is recorded into its
// domain's state. A domain appears once per round and apply touches only
// that domain's state under its shard lock, so applies commute and the
// round is cut into ApplyWorkers contiguous slices on the pool; width
// ≤ 1, or a one-slot round, is the plain loop on the round goroutine.
func (f *Fleet) applyStage(buf roundBuf, now time.Time) {
	n := len(buf.targets)
	w := min(f.cfg.ApplyWorkers, n)
	if w <= 1 {
		for i, st := range buf.targets {
			f.apply(st, &buf.results[i], now)
		}
		return
	}
	workpool.Run(w, w, func(s int) {
		for i := s * n / w; i < (s+1)*n/w; i++ {
			f.apply(buf.targets[i], &buf.results[i], now)
		}
	})
}

// apply records one resolved probe into the domain's aggregate state and
// puts r.obs.NS into its observable form (see observedNS) — under the
// state's shard lock, the one place LastNS may be read.
func (f *Fleet) apply(st *DomainState, r *roundResult, now time.Time) {
	sh := st.shard
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st.Probes++
	if r.obs.InZone {
		st.EverInZone = true
		st.LastAliveAt = now
		r.obs.NS = observedNS(st.LastNS, r.obs.NS)
		if st.FirstNS == nil {
			st.FirstNS = r.obs.NS
		}
		if !equalStrings(st.FirstNS, r.obs.NS) && !st.NSChanged {
			st.NSChanged = true
			st.NSChangedAt = now
		}
		st.LastNS = r.obs.NS
		if st.FirstV4 == nil && len(r.obs.V4) > 0 {
			st.FirstV4 = r.obs.V4
		}
		if len(r.mx) > 0 {
			st.HasMX = true
		}
		for _, s := range r.txt {
			if strings.HasPrefix(s, "v=spf1") {
				st.HasSPF = true
			}
		}
	} else if st.EverInZone && st.DeadAt.IsZero() {
		st.DeadAt = now
	}
	if f.cfg.StopWhenDead && !st.DeadAt.IsZero() && !st.Finished {
		st.Finished = true
		f.active.Add(-1)
	}
}

// observedNS returns the sorted, fleet-owned form of a backend NS answer.
// last is the state's LastNS (sorted, fleet-owned): an answer equal to it
// element for element is therefore already sorted and the observation
// reuses last — the steady state of a 48-hour watch, and allocation-free.
// First sight, a changed delegation, or an answer in another order gets a
// fresh sorted copy, so backend memory is never aliased or reordered.
func observedNS(last, ns []string) []string {
	if last != nil && equalStrings(last, ns) {
		return last
	}
	cp := append([]string(nil), ns...)
	sort.Strings(cp)
	return cp
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// State returns a copy of domain's aggregated state.
func (f *Fleet) State(domain string) (DomainState, bool) {
	domain = dnsname.Canonical(domain)
	sh := f.shard(domain)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.states[domain]
	if !ok {
		return DomainState{}, false
	}
	return *st, true
}

// States returns copies of all domain states, sorted by domain.
func (f *Fleet) States() []DomainState {
	out := make([]DomainState, 0, f.Watched())
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for _, st := range sh.states {
			out = append(out, *st)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// Watched returns the number of domains ever watched.
func (f *Fleet) Watched() int {
	n := 0
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		n += len(sh.states)
		sh.mu.Unlock()
	}
	return n
}

// AttachDispatcher is a no-op that remains only because bench/campaign.go
// calls it; it goes with that call in the benchmark PR of ROADMAP item 1(d).
func (f *Fleet) AttachDispatcher(*rdap.Dispatcher) {}

// FleetReport summarizes the fleet's probe activity plus — when the fleet
// runs on a Sim clock — the event engine's counters.
type FleetReport struct {
	Watched    int   // domains ever scheduled
	Finished   int   // watch windows closed
	Probes     int64 // probes executed
	EverInZone int   // domains observed delegated at least once
	Died       int   // domains that left the zone while watched
	NSChanged  int   // domains whose delegation changed mid-watch
	Rounds     int64 // coalesced probe rounds executed (clock events)
	MaxRound   int   // most domains probed in one round
	// ReorderHeld is always 0: no apply is held back for resequencing.
	// The field exists only because bench/campaign.go reads it, and goes
	// with the measure.reorder_held ledger row in the next benchmark PR.
	ReorderHeld int64
	// Dispatch is always zero: step 2 has no dispatcher. It keeps the four
	// fields bench/campaign.go reads, and goes with the rdap.dispatch_*
	// ledger rows in the benchmark PR of ROADMAP item 1(d).
	Dispatch struct {
		Enqueued, Completed, Shed int64
		MaxDepth                  int
	}
	// Engine holds the simulated clock's event counters; zero-valued
	// under the real-time clock.
	Engine simclock.Stats
}

// Report aggregates the fleet's operational state.
func (f *Fleet) Report() FleetReport {
	var rep FleetReport
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for _, st := range sh.states {
			rep.Watched++
			rep.Probes += int64(st.Probes)
			if st.Finished {
				rep.Finished++
			}
			if st.EverInZone {
				rep.EverInZone++
			}
			if !st.DeadAt.IsZero() {
				rep.Died++
			}
			if st.NSChanged {
				rep.NSChanged++
			}
		}
		sh.mu.Unlock()
	}
	rep.Rounds = f.rounds.Load()
	rep.MaxRound = int(f.maxRound.Load())
	if eng, ok := f.clk.(interface{ Stats() simclock.Stats }); ok {
		rep.Engine = eng.Stats()
	}
	return rep
}
