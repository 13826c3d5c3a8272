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
// arms a single clock event per 10-minute round, and every active watch
// is probed in it. A round does not read every one of them: it costs what
// changed. A backend whose handles notify (see Handle) tells the fleet
// when a watched name's answer may have moved, and a round reads, in
// admission order, only the watches notified since their last read, every
// watch whose handle cannot notify — for a backend without handles, or
// with handles that cannot notify, that is every watch, so the per-probe
// poll is the always-dirty case of the same loop — and, while any
// OnObservation observer is registered, every live watch, so each probe
// still reaches observers. Every other probe is folded: between two reads
// a watch's answer is constant, so the rounds it sat out count by
// arithmetic over the fleet's log of round instants — k folded rounds add
// k to Probes and, for an in-zone answer, move LastAliveAt to the last
// of them. The fold is settled at the watch's next read, at its
// retirement, and whenever State, States or Report copies it out, so
// every DomainState and FleetReport field is what reading every watch
// every round gives. Retirement pops the window-expired prefix of the
// admission-ordered watch list (Started never decreases in admission
// order) and skips StopWhenDead-finished entries lazily, so a round is
// O(reads + retiring), not O(live watches).
//
// Stage 1 of a round, the reads, has one path: the round's targets are
// cut into contiguous admission-ordered slices on the fleet's pool, and
// each slice is read by the one reader NewFleet picked — through the
// Handle each watch got from the backend at Watch, when the backend
// issues them (a watched name is looked up once, not once per probe),
// else by one BatchBackend.ProbeBatch call over the slice's names (a
// backend without ProbeBatch is wrapped once, in NewFleet, by an adapter
// that makes the per-domain calls). Backend reads are side-effect-free,
// so slices resolve concurrently; the fleet picks the slice count from
// the round size. Event count per campaign therefore scales with rounds,
// not probes, and the round's working memory is owned by the fleet and
// reused from round to round.
//
// Stage 2 of a round (DESIGN.md §14) is a loop on the round goroutine:
// once the round's reads are in, it takes the fleet lock once and
// applies every result to its domain's state in admission order; then
// observers fire, in the same order, with the lock released.
//
// Concurrency model (DESIGN.md §7): everything under mu — the watch
// registry, the watch list, the dirty list, the round log, the round
// scheduler's armed flag and counters, the observer list and every
// DomainState field. A round takes it three times: to pick its reads,
// for the applies, and for retirement and re-arm. It holds it neither
// while reading (backend reads touch only what Watch set before the state
// was published) nor while observers run, so an observer may call State.
// A notifying backend calls the fleet with its own lock held, so the lock
// order is backend, then fleet: the fleet never calls a backend under mu.
// Determinism contract: because reads are side-effect-free, a domain
// appears once per round and delivery stays in admission order, fleet
// reports are byte-identical whatever the slice count, and whether
// rounds read or fold.
package measure

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"darkdns/internal/dnsname"
	"darkdns/internal/rdap"
	"darkdns/internal/simclock"
	"darkdns/internal/slab"
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
// its own, never the backend's slice. The contract covers every route an
// answer takes: the methods below, ProbeBatch, MailBackend and Handle.
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

// Handle is a backend's view of one watched name, resolved once: a
// backend with the optional method
//
//	Resolve(domain string) Handle
//
// issues one at Watch, and every read of the name then goes through it
// instead of looking the name up again — for a simulation, the name's
// registry record rather than a chain of name-keyed maps. Probe(mail)
// answers exactly what slot 0 of ProbeBatch([]string{domain}, mail) would
// at the instant it is called: a handle follows every later change to its
// name, including one that registers or deletes it, so Resolve must
// accept a name that is not (or no longer) registered. Probes are
// side-effect-free reads, safe for concurrent use, under Backend's
// sharing contract.
//
// A handle may also notify, with the optional method
//
//	Notify(w Watcher)
//
// which the fleet calls once per watch, before the admission probe and
// without holding its lock. The handle must then call w.AnswerChanged
// every time its Probe answer may have changed — a spurious call is
// harmless, a missed one is not — synchronously, from the goroutine
// making the change (under a Sim clock, inside the mutating clock event),
// so that a round at the same instant sees the change exactly when a read
// would. AnswerChanged takes the fleet's lock: the handle may hold locks
// of its own while calling it, but must never be called back into by
// them. A watch whose handle has no Notify is read every round.
type Handle interface {
	Probe(mail bool) ProbeResult
}

// A Watcher is what a notifying handle tells of a change: the watch's
// *DomainState, so a subscription costs the fleet no callback of its own.
type Watcher interface{ AnswerChanged() }

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

// Observation is one probe result. Its slices are read-only: NS is the
// fleet's interned copy of the delegation, shared with the domain's state,
// with every later observation of an unchanged delegation and with every
// other watch delegated to the same set; V4/V6 are shared with the
// backend.
type Observation struct {
	Domain string
	Worker int
	At     time.Time
	NS     []string // sorted; nil when the domain is out of the zone
	InZone bool
	V4     []netip.Addr
	V6     []netip.Addr
}

// DomainState aggregates a domain's probe history. Its NS slices are the
// fleet's interned, read-only copies (see Observation).
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

	// inZone is the last read's answer, which every later round until the
	// next read repeats. The flags sit beside Finished, where they cost no
	// padding of their own.
	inZone bool
	listed bool // on the watch list: rounds read or fold it
	polled bool // its handle cannot notify, so every round reads it
	dirty  bool // on the dirty list: polled, or notified since its last read

	seq    int    // admission number: read order, and worker seq % Workers
	handle Handle // the backend's handle, issued at Watch; nil when it issues none
	fleet  *Fleet // the fleet watching it; nil in a copy State or States returns
	// settled counts the entries of the fleet's round log already in
	// Probes and LastAliveAt, read or folded.
	settled int
}

// AnswerChanged is the watch's Watcher: a notifying handle calls it when
// the watched answer may have moved, and the next round reads the watch.
// On a copy State or States returned it does nothing.
func (st *DomainState) AnswerChanged() {
	if st.fleet != nil {
		st.fleet.changed(st)
	}
}

// copyOut returns st for a caller outside the fleet: a copy tied to no
// fleet. The caller holds mu.
func (st *DomainState) copyOut() DomainState {
	cp := *st
	cp.fleet = nil
	return cp
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
	Workers  int           // paper: 16; also the most slices a round's probes are cut into
	Interval time.Duration // paper: 10 minutes
	Window   time.Duration // paper: 48 hours
	// Engines is embedded only because bench/campaign.go sets its
	// ProbeWorkers and ApplyWorkers here; the fleet reads no field of it.
	// It goes with those assignments in the benchmark PR that purges the
	// shims.
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

// Fleet schedules and aggregates reactive probes.
type Fleet struct {
	cfg Config
	clk simclock.Clock
	// read answers one contiguous slice of a round's watches into their
	// result slots; NewFleet picks it once. With a backend that issues
	// handles (resolve non-nil) each slot is its watch's Handle.Probe;
	// otherwise the slice is one ProbeBatch call over its names — the
	// caller's own, or the per-domain adapter's over a plain Backend.
	// probeMail is Config.ProbeMail narrowed to backends that can answer
	// it.
	read      func(targets []*DomainState, names []string, results []roundResult, now time.Time)
	resolve   func(domain string) Handle
	backend   BatchBackend
	probeMail bool

	// mu guards every field below except buf and roundEvent, and every
	// DomainState field (see the package doc).
	mu      sync.Mutex
	states  map[string]*DomainState
	nextSeq int // watch admissions: ordering + worker assignment
	active  int // unfinished listed watches; rounds stay armed while > 0
	// stateSlab carves the watches' states; a state lives as long as the
	// fleet, so its chunk does too.
	stateSlab slab.Of[DomainState]

	// watchList holds every listed watch not yet popped, in admission
	// order: Watch appends, retirement pops the window-expired prefix, and
	// a StopWhenDead-finished entry waits, skipped, until it reaches the
	// front. A round walks it only while observers are registered.
	watchList []*DomainState
	// dirty holds the watches the next round reads: notified since their
	// last read, or polled. A round sorts it into admission order.
	dirty []*DomainState
	// log holds the instant of every round that had a watch due, in
	// order; a watch's folded rounds are a range of it.
	log   []time.Time
	reads int64 // probes answered by a backend read

	// Round scheduler: one clock event serves every due domain. armed
	// guards against double-arming when Watch races the round callback,
	// and stays set until the round it armed has finished — so at most
	// one round runs at a time and buf needs no lock of its own.
	armed      bool
	buf        roundBuf // round's working memory, reused across rounds
	roundEvent func()   // the round's clock callback, bound once

	maxRound int // widest round (domains probed in one event)

	// nsSets interns the sorted NS sets rounds observe, keyed by content
	// (see observedNS). It holds one entry per distinct set: in the
	// simulated world, at most the 13 shared sets of each DNS provider.
	nsSets map[string][]string

	// spareAdmit is the admission probe's memory, reused across watches:
	// Watch takes it for its probe and puts it back, so a Watch nested
	// in that probe's observers, or concurrent under the real-time
	// clock, finds none and makes its own.
	spareAdmit *admission

	// observers is copy-on-write: a round delivers from the list it read
	// under mu while a registration installs a new one.
	observers []func(Observation)
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
	f := &Fleet{cfg: cfg, clk: clk, probeMail: cfg.ProbeMail && hasMail,
		states: make(map[string]*DomainState), nsSets: make(map[string][]string)}
	if rb, ok := backend.(interface{ Resolve(string) Handle }); ok {
		f.resolve, f.read = rb.Resolve, f.readHandles
	} else {
		bb, ok := backend.(BatchBackend)
		if !ok {
			bb = perDomain{backend, mb}
		}
		f.backend, f.read = bb, f.readNames
	}
	f.roundEvent = func() { f.round(f.clk.Now()) }
	return f
}

// OnObservation registers fn to receive every probe result (the pipeline
// feeds these into its Kafka topic). Observers run on the round's own
// goroutine, in admission order, after every state apply of the round: an
// observation reflects exactly its own domain's post-apply state (a
// domain appears once per round), and the round's other domains already
// show theirs.
func (f *Fleet) OnObservation(fn func(Observation)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	// The full slice expression makes append copy, so the list a round
	// is delivering from never changes under it.
	f.observers = append(f.observers[:len(f.observers):len(f.observers)], fn)
}

// Watch begins the 48-hour probe schedule for domain. Re-watching an
// already-watched domain is a no-op. The first probe fires immediately
// (detection triggers the watch, as in the paper); subsequent probes
// ride the fleet's coalesced rounds. The watch starts at Clock.Now — under
// a Sim clock, the firing instant of the event that calls Watch. A backend
// that issues handles resolves the name here, once for the whole watch
// (a re-watch resolves and discards one), and a handle that notifies is
// subscribed before the admission probe, so no change after the probe's
// read goes unseen. The watch's state is its own Watcher, carved from the
// fleet's slab, so a watch costs whatever the backend's handle costs and
// one allocation per chunk of states.
func (f *Fleet) Watch(domain string) {
	domain = dnsname.Canonical(domain)
	now := f.clk.Now()
	var h Handle
	if f.resolve != nil {
		h = f.resolve(domain)
	}
	notifier, notifies := h.(interface{ Notify(Watcher) })
	f.mu.Lock()
	if _, ok := f.states[domain]; ok {
		f.mu.Unlock()
		return
	}
	st := f.stateSlab.New()
	*st = DomainState{Domain: domain, Started: now, seq: f.nextSeq, handle: h, fleet: f, polled: !notifies, dirty: !notifies}
	f.states[domain] = st
	f.nextSeq++
	one := f.spareAdmit
	f.spareAdmit = nil
	f.mu.Unlock()
	if notifies {
		notifier.Notify(st)
	}

	// The admission probe fires before the state joins watchList: under
	// the real-time clock a round on the timer goroutine could otherwise
	// pick it mid-admission and probe the same state concurrently. Under a
	// Sim clock Watch runs inside a clock event, so the ordering is
	// unobservable there. The probe works in memory of its own, never the
	// round's buf: under the real-time clock a round may be in flight on
	// another goroutine. It cannot finish the watch (a first probe never
	// sees a death), so the watch is active from here on.
	if one == nil {
		one = new(admission)
	}
	one.target[0] = st
	f.probeRound(roundBuf{one.target[:], one.name[:], one.result[:]}, now)
	*one = admission{} // keeps nothing of this watch reachable
	f.mu.Lock()
	f.spareAdmit = one
	st.listed, st.settled = true, len(f.log)
	if st.dirty {
		f.dirty = append(f.dirty, st)
	}
	f.watchList = append(f.watchList, st)
	f.active++
	arm := f.arm()
	f.mu.Unlock()
	if arm {
		f.clk.At(now.Add(f.cfg.Interval), f.roundEvent)
	}
}

// changed is AnswerChanged on a watch of f: st's answer may have moved,
// so the next round reads it. A watch is on the dirty list at most once;
// one not listed yet joins it when Watch lists it.
func (f *Fleet) changed(st *DomainState) {
	f.mu.Lock()
	if !st.dirty && !st.Finished {
		st.dirty = true
		if st.listed {
			f.dirty = append(f.dirty, st)
		}
	}
	f.mu.Unlock()
}

// arm marks the round chain armed and reports whether the caller must
// schedule the next round, one interval after its own instant: only when
// no round is armed and a watch is active. One clock event per interval
// serves every due domain, which is what collapses the fleet's event
// count from probes to rounds; when the last watch retires the chain
// disarms, so a fully-drained clock stays drained. The caller holds mu
// and schedules after releasing it.
func (f *Fleet) arm() bool {
	if f.armed || f.active == 0 {
		return false
	}
	f.armed = true
	return true
}

// round is the per-interval clock event: log the round if any watch is
// due, read the watches that need a read, retire, re-arm while work
// remains. now is the event's firing instant. armed is released only once
// the round is over: a Watch racing it finds the chain still armed and
// schedules nothing, and the round re-arms on its way out — so no second
// round can start while buf is in use.
func (f *Fleet) round(now time.Time) {
	f.mu.Lock()
	if n := f.active - f.expired(now); n > 0 {
		f.log = append(f.log, now)
		f.maxRound = max(f.maxRound, n)
		f.pickReads(now)
	}
	n := len(f.buf.targets)
	f.mu.Unlock()
	if n > 0 {
		f.buf.names = slices.Grow(f.buf.names[:0], n)[:n]
		f.buf.results = slices.Grow(f.buf.results[:0], n)[:n]
		f.probeRound(f.buf, now)
		// Delivered: drop the round's references so the buffer pins
		// neither retired states nor superseded answers until next round.
		clear(f.buf.targets)
		clear(f.buf.names)
		clear(f.buf.results)
		f.buf.targets = f.buf.targets[:0]
	}

	f.mu.Lock()
	f.retireElapsed(now.Add(f.cfg.Interval))
	f.armed = false
	arm := f.arm()
	f.mu.Unlock()
	if arm {
		f.clk.At(now.Add(f.cfg.Interval), f.roundEvent)
	}
}

// due reports whether st takes part in the round at now: unfinished and
// inside its window. A watch whose window closed before now (a late round
// under the real-time clock, or a window shorter than the interval) is
// not; retirement takes it after the round.
func (f *Fleet) due(st *DomainState, now time.Time) bool {
	return !st.Finished && now.Sub(st.Started) <= f.cfg.Window
}

// expired counts the active watches the round at now finds past their
// window. Started never decreases in admission order, so they lead the
// watch list, and the walk stops at the first active watch in its window:
// it visits only what this round's retirement pops. (Under the real-time
// clock two concurrent admissions may list in the other order of their
// instants; the later-listed one then retires a round late.) The caller
// holds mu.
func (f *Fleet) expired(now time.Time) int {
	n := 0
	for _, st := range f.watchList {
		if st.Finished {
			continue
		}
		if f.due(st, now) {
			break
		}
		n++
	}
	return n
}

// pickReads fills buf.targets, in admission order, with the due watches
// the round just logged must read: every live one while observers are
// registered, else the dirty list's. Each is settled through the rounds
// before this one and marked read in it, and the dirty list starts over
// with the polled ones among them. The caller holds mu.
func (f *Fleet) pickReads(now time.Time) {
	from := f.dirty
	if len(f.observers) > 0 {
		from = f.watchList
	} else {
		slices.SortFunc(f.dirty, func(a, b *DomainState) int { return a.seq - b.seq })
	}
	for _, st := range from {
		if f.due(st, now) {
			f.buf.targets = append(f.buf.targets, st)
		}
	}
	clear(f.dirty)
	f.dirty = f.dirty[:0]
	cur := len(f.log) - 1
	for _, st := range f.buf.targets {
		f.settle(st, cur)
		st.settled = cur + 1
		st.dirty = st.polled
		if st.polled {
			f.dirty = append(f.dirty, st)
		}
	}
}

// settle folds into st the rounds of log[st.settled:upto] it sat out
// unread: each repeated its last read's answer, so it adds a probe and,
// in zone, moves LastAliveAt to its instant. Rounds past the watch's
// window, which only its retirement round can hold, are not counted. A
// watch not yet listed, or finished, has nothing to fold. The caller
// holds mu.
func (f *Fleet) settle(st *DomainState, upto int) {
	if !st.listed || st.Finished || st.settled >= upto {
		return
	}
	sat := f.log[st.settled:upto]
	st.settled = upto
	k := sort.Search(len(sat), func(i int) bool { return sat[i].Sub(st.Started) > f.cfg.Window })
	if k == 0 {
		return
	}
	st.Probes += k
	if st.inZone {
		st.LastAliveAt = sat[k-1]
	}
}

// retireElapsed is the round's retirement, after its reads, under mu. It
// pops the front of the watch list while that is a finished watch
// (StopWhenDead) or one whose window will have elapsed by next, the next
// round's instant — which it settles and retires now, instead of arming
// one more round event whose only work would be that retirement. No probe
// is ever skipped — the trailing, probe-free round event simply never
// exists, and a campaign's final event leaves the clock drained.
func (f *Fleet) retireElapsed(next time.Time) {
	i := 0
	for ; i < len(f.watchList); i++ {
		st := f.watchList[i]
		if st.Finished {
			continue
		}
		if next.Sub(st.Started) <= f.cfg.Window {
			break
		}
		f.settle(st, len(f.log))
		st.Finished = true
		f.active--
	}
	clear(f.watchList[:i])
	f.watchList = f.watchList[i:]
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

// admission is the one-slot working memory of Watch's admission probe.
type admission struct {
	target [1]*DomainState
	name   [1]string
	result [1]roundResult
}

// roundBuf is the working memory of one probe round, three positional
// slices of equal length: the watches it reads in admission order, their
// names as handed to ProbeBatch (unused when reading through handles),
// and the results. Fleet.round reuses one across rounds; Watch brings a
// one-slot buffer of its own.
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
// phases. probeStage resolves the whole batch, slice by slice; backend
// reads are side-effect-free, so execution order is unobservable.
// applyStage records every result into its domain's state. Then
// observers fire in watch-admission order, the order the per-domain
// scheduler produced — so the slice count never reorders an observable,
// and campaigns stay byte-identical across slice counts and clock
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
	observers := f.applyStage(buf, now)
	for i := range buf.results {
		for _, fn := range observers {
			fn(buf.results[i].obs)
		}
	}
}

// minSlice is the shortest slice worth a goroutine and a ProbeBatch call
// of its own: each slice costs a result slab and a goroutine, every
// round, so slices are sized for the round rather than dealt one per
// pool worker. A constant, not a knob.
const minSlice = 256

// sliceCount returns how many contiguous slices a round of n ≥ 1 targets
// is cut into: one per minSlice targets, up to the pool width, at least
// one. A ledger-sized round is one slice; a paper-sized one (thousands of
// targets) is Workers slices, the measured winner (DESIGN.md §14).
func (f *Fleet) sliceCount(n int) int {
	return max(1, min(n/minSlice, f.cfg.Workers))
}

// probeStage is stage 1 of a round, the fleet's one probe path: the
// target list is cut into contiguous slices (admission order preserved
// inside each) and each slice is read on its own pool goroutine by the
// reader NewFleet picked; a one-slice round is read on the round
// goroutine. Results are positional — slot j of slice [lo, hi) lands in
// results[lo+j].
func (f *Fleet) probeStage(buf roundBuf, now time.Time) {
	n := len(buf.targets)
	w := f.sliceCount(n)
	if w == 1 {
		f.read(buf.targets, buf.names, buf.results, now)
		return
	}
	workpool.Run(w, w, func(s int) {
		lo, hi := s*n/w, (s+1)*n/w
		f.read(buf.targets[lo:hi], buf.names[lo:hi], buf.results[lo:hi], now)
	})
}

// readHandles is the slice reader of a backend that issues handles: each
// watch's own Handle answers straight into its result slot, so a round
// makes no name lookup and allocates no result slab.
func (f *Fleet) readHandles(targets []*DomainState, _ []string, results []roundResult, now time.Time) {
	for j, st := range targets {
		pr := st.handle.Probe(f.probeMail)
		f.fill(&results[j], st, &pr, now)
	}
}

// readNames is the slice reader of every other backend: one ProbeBatch
// call answers the whole slice by name, letting the backend answer every
// name in one pass over shared state or transport.
func (f *Fleet) readNames(targets []*DomainState, names []string, results []roundResult, now time.Time) {
	for j, st := range targets {
		names[j] = st.Domain
	}
	prs := f.backend.ProbeBatch(names, f.probeMail)
	for j := range prs {
		f.fill(&results[j], targets[j], &prs[j], now)
	}
}

// fill writes st's answer pr into its round slot r. Mail fields are copied
// only when the probe is in-zone, so a backend that answers MX/TXT for
// out-of-zone names cannot diverge the campaign.
func (f *Fleet) fill(r *roundResult, st *DomainState, pr *ProbeResult, now time.Time) {
	*r = roundResult{obs: Observation{Domain: st.Domain, Worker: st.seq % f.cfg.Workers, At: now, InZone: pr.InZone}}
	if pr.InZone {
		r.obs.NS = pr.NS
		r.obs.V4 = pr.V4
		r.obs.V6 = pr.V6
		if f.probeMail {
			r.mx = pr.MX
			r.txt = pr.TXT
		}
	}
}

// applyStage is stage 2 of a round: under one hold of mu, every result
// is recorded into its domain's state in admission order. It returns the
// observer list the round delivers to.
func (f *Fleet) applyStage(buf roundBuf, now time.Time) []func(Observation) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reads += int64(len(buf.targets))
	for i, st := range buf.targets {
		f.apply(st, &buf.results[i], now)
	}
	return f.observers
}

// apply records one resolved probe into the domain's aggregate state and
// puts r.obs.NS into its observable form (see observedNS). The caller
// holds mu.
func (f *Fleet) apply(st *DomainState, r *roundResult, now time.Time) {
	st.Probes++
	st.inZone = r.obs.InZone
	if r.obs.InZone {
		st.EverInZone = true
		st.LastAliveAt = now
		r.obs.NS = f.observedNS(st.LastNS, r.obs.NS)
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
		f.active--
	}
}

// observedNS returns the sorted, fleet-owned form of a backend NS answer.
// last is the state's LastNS (sorted, fleet-owned): an answer equal to it
// element for element is therefore already sorted and the observation
// reuses last — the steady state of a 48-hour watch. First sight, a
// changed delegation, or an answer in another order is sorted in scratch
// memory and looked up in the fleet's intern by content; only a set the
// fleet has never seen allocates, its copy and its key. Backend memory is
// never aliased or reordered. An empty answer observes nil. The caller
// holds mu.
func (f *Fleet) observedNS(last, ns []string) []string {
	if len(ns) == 0 {
		return nil
	}
	if last != nil && equalStrings(last, ns) {
		return last
	}
	var scratch [8]string
	sorted := append(scratch[:0], ns...)
	slices.Sort(sorted)
	var keyBuf [256]byte
	key := keyBuf[:0]
	for _, name := range sorted {
		key = binary.AppendUvarint(key, uint64(len(name)))
		key = append(key, name...)
	}
	if set, ok := f.nsSets[string(key)]; ok {
		return set
	}
	set := slices.Clone(sorted)
	f.nsSets[string(key)] = set
	return set
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

// State returns a copy of domain's aggregated state, its folded rounds
// settled.
func (f *Fleet) State(domain string) (DomainState, bool) {
	domain = dnsname.Canonical(domain)
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.states[domain]
	if !ok {
		return DomainState{}, false
	}
	f.settle(st, len(f.log))
	return st.copyOut(), true
}

// States returns copies of all domain states, sorted by domain, their
// folded rounds settled: safe to keep while the fleet still probes, at
// one copy per state. A finished campaign's report reads StateView,
// which copies nothing; States keeps its copying contract because
// bench/campaign.go calls it.
func (f *Fleet) States() []DomainState {
	f.mu.Lock()
	defer f.mu.Unlock()
	sts := f.sortedStates()
	out := make([]DomainState, len(sts))
	for i, st := range sts {
		out[i] = st.copyOut()
	}
	return out
}

// StateView returns the fleet's own domain states, sorted by domain,
// their folded rounds settled: a view, not copies, for reading a
// finished campaign. Call it only once the fleet has stopped probing
// (its clock drained), since a later round writes the states it
// returns, and modify none of them.
func (f *Fleet) StateView() []*DomainState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sortedStates()
}

// sortedStates settles every state and returns pointers to them, sorted
// by domain. The caller holds mu.
func (f *Fleet) sortedStates() []*DomainState {
	sts := make([]*DomainState, 0, len(f.states))
	for _, st := range f.states {
		f.settle(st, len(f.log))
		sts = append(sts, st)
	}
	slices.SortFunc(sts, func(a, b *DomainState) int { return strings.Compare(a.Domain, b.Domain) })
	return sts
}

// Watched returns the number of domains ever watched.
func (f *Fleet) Watched() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.states)
}

// AttachDispatcher is a no-op that remains only because bench/campaign.go
// calls it; it goes with that call in the benchmark PR that purges the shims.
func (f *Fleet) AttachDispatcher(*rdap.Dispatcher) {}

// FleetReport summarizes the fleet's probe activity plus — when the fleet
// runs on a Sim clock — the event engine's counters.
type FleetReport struct {
	Watched  int   // domains ever scheduled
	Finished int   // watch windows closed
	Probes   int64 // probes executed, read or folded
	// Reads counts the probes a backend read answered: admissions, reads
	// of notified watches and reads of polled ones. Probes − Reads rounds
	// were folded. det: a pure function of the campaign, like Probes.
	Reads      int64
	EverInZone int   // domains observed delegated at least once
	Died       int   // domains that left the zone while watched
	NSChanged  int   // domains whose delegation changed mid-watch
	Rounds     int64 // coalesced probe rounds executed (clock events with a watch due)
	MaxRound   int   // most domains probed in one round
	// ReorderHeld is always 0: no apply is held back for resequencing.
	// The field exists only because bench/campaign.go reads it, and goes
	// with the measure.reorder_held ledger row in the next benchmark PR.
	ReorderHeld int64
	// Dispatch is always zero: step 2 has no dispatcher. It keeps the four
	// fields bench/campaign.go reads, and goes with the rdap.dispatch_*
	// ledger rows in the benchmark PR that purges the shims.
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
	f.mu.Lock()
	rep := FleetReport{Watched: len(f.states), Reads: f.reads, Rounds: int64(len(f.log)), MaxRound: f.maxRound}
	for _, st := range f.states {
		f.settle(st, len(f.log))
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
	f.mu.Unlock()
	if eng, ok := f.clk.(interface{ Stats() simclock.Stats }); ok {
		rep.Engine = eng.Stats()
	}
	return rep
}
