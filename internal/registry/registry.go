// Package registry simulates a TLD registry: the ground-truth registration
// ledger, the live zone rebuilt on the registry's operational cadence
// (com/net every 60 s, most gTLDs every 15–30 min — the driver behind the
// per-TLD detection-delay differences in Figure 1), daily zone-file
// publication for CZDS, and the registry-side RDAP data store.
//
// Rebuilds happen on the cadence's grid — the registry's creation instant
// plus whole periods — but only at grid instants something is pending
// for: the mutation that leaves the first change pending arms one clock
// event at the next grid instant, and that rebuild applies everything
// pending by then. A rebuild with nothing to apply changes nothing, so
// the zone is the one a fixed-cadence rebuild would show, while an idle
// registry costs its clock no event.
//
// A daily publication is the zone's net change since the previous one
// (a zoneset.Diff), not a copy of the zone: the registry remembers the
// pre-publication delegation of every name a rebuild touches and
// classifies only those names when it publishes, so publishing costs
// O(names changed). A subscriber that folds the diffs in order holds the
// zone a daily snapshot would have shown it.
//
// The ledger records every registration ever made, including domains
// deleted before ever entering a published snapshot — the paper's
// "transient domains". ccTLD-mode registries (InCZDS=false) publish only
// to their own subscribers, never to CZDS, modelling the .nl ground-truth
// vantage of §4.4.
//
// The ledger keeps one record per registrable name (one label below the
// TLD): every registration of the name and, while it is delegated, the
// probe answer the live zone gives for it — an immutable {NS, A} pair the
// record publishes behind one atomic pointer. Registrations and zone
// rebuilds replace that pair under the registry's lock, so a Handle —
// issued once by Resolve, for a name that may not be registered yet or
// any more — answers every later probe of its name with one atomic load:
// no lock, no name hashing. A handle's holder may also ask to be told of
// every replacement (Handle.Notify), so it need not re-read an answer
// that has not changed.
package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"darkdns/internal/dnsname"
	"darkdns/internal/simclock"
	"darkdns/internal/zoneset"
)

// Registration is one ledger entry (ground truth).
type Registration struct {
	Domain    string
	Registrar string
	Created   time.Time
	Deleted   time.Time // zero while active
	NS        []string
	WebAddr   netip.Addr

	// Zone visibility (ground truth, set by zone rebuilds).
	InZoneAt    time.Time // when the delegation entered the live zone
	OutOfZoneAt time.Time // when it left; zero while delegated

	// webAddrs is the A answer for WebAddr, built once at registration and
	// never mutated, so Registry.WebAddrs can hand it out without copying.
	webAddrs []netip.Addr
	// prev is the registration of the same name this one superseded; the
	// ledger's older entries hang off the newest through it.
	prev *Registration
}

// Active reports whether the registration is not deleted at t.
func (r *Registration) Active(t time.Time) bool {
	return !r.Created.After(t) && (r.Deleted.IsZero() || r.Deleted.After(t))
}

// Lifetime returns Deleted-Created, or 0 while active.
func (r *Registration) Lifetime() time.Duration {
	if r.Deleted.IsZero() {
		return 0
	}
	return r.Deleted.Sub(r.Created)
}

// Config parameterizes a registry.
type Config struct {
	TLD             string
	ZoneUpdateEvery time.Duration // live zone rebuild cadence
	SnapshotEvery   time.Duration // zone file publication period (24 h)
	// SnapshotDelay returns the publication delay for each snapshot;
	// nil means publish immediately. The paper notes snapshots can lag
	// by days, which drives the ±3-day slack in transient detection.
	SnapshotDelay func(rng *rand.Rand) time.Duration
	// RDAPSyncDelay is how long after Create the registration becomes
	// visible over RDAP ("we were too early" failures in §4.2).
	RDAPSyncDelay time.Duration
	InCZDS        bool
}

// DefaultConfig returns the operational parameters the paper reports for
// tld: com/net rebuild every 60 s, other gTLDs every 15–30 min.
func DefaultConfig(tld string) Config {
	cfg := Config{
		TLD:           dnsname.Canonical(tld),
		SnapshotEvery: 24 * time.Hour,
		RDAPSyncDelay: 2 * time.Minute,
		InCZDS:        true,
	}
	switch cfg.TLD {
	case "com", "net":
		cfg.ZoneUpdateEvery = 60 * time.Second
	case "org", "info":
		cfg.ZoneUpdateEvery = 15 * time.Minute
	case "nl", "de", "uk":
		cfg.ZoneUpdateEvery = 30 * time.Minute
		cfg.InCZDS = false
	default:
		cfg.ZoneUpdateEvery = 20 * time.Minute
	}
	return cfg
}

// Errors returned by registry operations.
var (
	ErrExists    = errors.New("registry: domain already registered")
	ErrNotFound  = errors.New("registry: domain not registered")
	ErrWrongZone = errors.New("registry: domain not under this TLD")
)

// Registry is a simulated TLD registry.
type Registry struct {
	cfg Config
	clk simclock.Clock
	rng *rand.Rand

	// mu is read-locked by the by-name query paths (authoritative, RDAP,
	// ground truth) and write-locked by ledger mutations and zone
	// rebuilds. A Handle's probe takes no lock: it loads the answer its
	// record published, which only writers holding mu replace.
	mu      sync.RWMutex
	ledger  map[string]*record // keyed by registrable name
	zone    *zoneset.Snapshot  // live zone
	serial  uint32
	pending map[string]pendingOp
	// since holds, for each name a rebuild touched since the last
	// publication, its delegation in that publication (nil: absent).
	since map[string]*zoneset.Delegation
	subs  []func(zoneset.Diff)
	// delivered is when the newest publication is delivered: no later
	// one is delivered before it, however short its own delay.
	delivered time.Time

	// origin anchors the rebuild grid origin + k·ZoneUpdateEvery. A
	// rebuild is armed at the next grid instant only while something is
	// pending (armed), so an idle registry schedules no rebuild at all;
	// stopped cancels arming and any armed rebuild.
	origin  time.Time
	armed   bool
	stopped bool
	rebuild func() // rebuildArmed, bound once

	snapTicker *simclock.Ticker
}

type pendingOp struct {
	del bool
	ns  []string
}

// record is the ledger's entry for one registrable name: its newest
// registration and the answer the live zone gives for it. It is created
// by the name's first registration, or earlier by Resolve, and never
// removed: a Handle points at it for good. There is one per name a world
// registers, so older registrations chain through Registration.prev
// instead of widening it. newest and the notify callbacks are guarded by
// the registry's mu; live is stored only under mu, through publish, and
// loaded with or without it.
type record struct {
	newest *Registration                   // nil until the name is first registered
	live   atomic.Pointer[delegatedAnswer] // nil while the name is not delegated
	// notify and more are the callbacks Handle.Notify registered, called
	// after every store of live. The first is held inline: almost every
	// record has at most one watcher, and it then costs no slice.
	notify func()
	more   []func()
}

// publish stores ans as the record's live answer and tells every
// registered callback, in registration order. The caller holds mu.
func (rec *record) publish(ans *delegatedAnswer) {
	rec.live.Store(ans)
	if rec.notify == nil {
		return
	}
	rec.notify()
	for _, fn := range rec.more {
		fn()
	}
}

// delegatedAnswer is what a probe of a delegated name reads, as one
// consistent cut: the live zone's NS set and the newest registration's A
// answer. It is never modified once published; a change publishes a new
// one.
type delegatedAnswer struct {
	NS []string
	A  []netip.Addr
}

// active returns the newest registration while it is not deleted.
func (rec *record) active() *Registration {
	if rec == nil || rec.newest == nil || !rec.newest.Deleted.IsZero() {
		return nil
	}
	return rec.newest
}

// New creates a registry and starts its snapshot ticker on clk; the
// registry's clock time now is the origin of its zone-rebuild grid. The
// rng drives publication-delay sampling and must be dedicated to this
// registry for determinism.
func New(cfg Config, clk simclock.Clock, rng *rand.Rand) *Registry {
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 24 * time.Hour
	}
	if cfg.ZoneUpdateEvery <= 0 {
		cfg.ZoneUpdateEvery = time.Minute
	}
	r := &Registry{
		cfg:     cfg,
		clk:     clk,
		rng:     rng,
		ledger:  make(map[string]*record),
		zone:    zoneset.NewSnapshot(cfg.TLD, 1, clk.Now()),
		serial:  1,
		pending: make(map[string]pendingOp),
		since:   make(map[string]*zoneset.Delegation),
		origin:  clk.Now(),
	}
	r.rebuild = r.rebuildArmed
	// Every registry generates daily zone files; InCZDS only controls
	// whether ICANN's CZDS redistributes them (ccTLDs keep theirs
	// private, which is exactly the paper's §4.4 visibility asymmetry).
	r.snapTicker = simclock.NewTicker(clk, cfg.SnapshotEvery, func(now time.Time) { r.publishSnapshot(now) })
	return r
}

// Stop halts the registry's zone rebuilds and snapshot publications.
func (r *Registry) Stop() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
	r.snapTicker.Stop()
}

// TLD returns the registry's zone apex.
func (r *Registry) TLD() string { return r.cfg.TLD }

// InCZDS reports whether the registry publishes its zone files to CZDS.
func (r *Registry) InCZDS() bool { return r.cfg.InCZDS }

// Subscribe registers fn to receive every future daily publication: the
// zone's change since the previous one, the first against the empty
// zone the registry started with. Publications arrive in serial order.
// fn must not modify the diff; every subscriber shares it.
func (r *Registry) Subscribe(fn func(zoneset.Diff)) {
	r.mu.Lock()
	r.subs = append(r.subs, fn)
	r.mu.Unlock()
}

// Register creates a new active registration stamped at the clock's
// current instant.
func (r *Registry) Register(domain, registrar string, ns []string, web netip.Addr) (*Registration, error) {
	return r.RegisterAt(domain, registrar, ns, web, r.clk.Now())
}

// RegisterAt creates a new active registration stamped at an explicit
// instant, for a caller that already holds the instant it registers at.
// Only a registrable name — one label below the TLD — is accepted, so the
// zone never delegates anything else.
func (r *Registry) RegisterAt(domain, registrar string, ns []string, web netip.Addr, at time.Time) (*Registration, error) {
	domain = dnsname.Canonical(domain)
	if key, ok := r.registrable(domain); !ok || key != domain {
		return nil, fmt.Errorf("%w: %s under %s", ErrWrongZone, domain, r.cfg.TLD)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.ledger[domain]
	if rec.active() != nil {
		return nil, fmt.Errorf("%w: %s", ErrExists, domain)
	}
	reg := &Registration{
		Domain:    domain,
		Registrar: registrar,
		Created:   at,
		NS:        append([]string(nil), ns...),
		WebAddr:   web,
	}
	if web.IsValid() {
		reg.webAddrs = []netip.Addr{web}
	}
	if rec == nil {
		rec = &record{}
		r.ledger[domain] = rec
	}
	reg.prev, rec.newest = rec.newest, reg
	// A name deleted but not yet rebuilt out of the zone is still
	// delegated, and its A answer is the newest registration's from now
	// on. Two nil answers are the same answer.
	if cur := rec.live.Load(); cur != nil && (cur.A != nil || reg.webAddrs != nil) {
		rec.publish(&delegatedAnswer{NS: cur.NS, A: reg.webAddrs})
	}
	r.pend(domain, pendingOp{ns: reg.NS})
	return reg, nil
}

// Delete removes an active registration (registrar takedown, §4.3).
func (r *Registry) Delete(domain string) error {
	return r.DeleteAt(domain, r.clk.Now())
}

// DeleteAt removes an active registration stamped at an explicit
// instant (see RegisterAt).
func (r *Registry) DeleteAt(domain string, at time.Time) error {
	domain = dnsname.Canonical(domain)
	r.mu.Lock()
	defer r.mu.Unlock()
	reg := r.ledger[domain].active()
	if reg == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, domain)
	}
	reg.Deleted = at
	r.pend(domain, pendingOp{del: true})
	return nil
}

// UpdateNS changes the delegation of an active registration (the 2.5 % of
// NRDs in §4.1 that swap NS infrastructure within 24 h).
func (r *Registry) UpdateNS(domain string, ns []string) error {
	domain = dnsname.Canonical(domain)
	r.mu.Lock()
	defer r.mu.Unlock()
	reg := r.ledger[domain].active()
	if reg == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, domain)
	}
	reg.NS = append([]string(nil), ns...)
	if op, ok := r.pending[domain]; !ok || !op.del {
		r.pend(domain, pendingOp{ns: reg.NS})
	}
	return nil
}

// pend records op as domain's pending change and, unless one is already
// armed, arms a rebuild at the first grid instant origin + k·ZoneUpdateEvery
// strictly after the clock's now: the instant the registry's cadence would
// next have rebuilt the zone. The caller holds mu; scheduling under it is
// safe because a clock never calls back while scheduling.
func (r *Registry) pend(domain string, op pendingOp) {
	r.pending[domain] = op
	if r.armed || r.stopped {
		return
	}
	r.armed = true
	every := r.cfg.ZoneUpdateEvery
	r.clk.At(r.origin.Add((r.clk.Now().Sub(r.origin)/every+1)*every), r.rebuild)
}

// rebuildArmed is the armed rebuild's clock event: it disarms and, unless
// the registry was stopped, rebuilds the zone at the firing instant.
func (r *Registry) rebuildArmed() {
	now := r.clk.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.armed = false
	if !r.stopped {
		r.rebuildZone(now)
	}
}

// rebuildZone applies pending operations at now. The caller holds mu.
func (r *Registry) rebuildZone(now time.Time) {
	if len(r.pending) == 0 {
		return
	}
	for domain, op := range r.pending {
		if _, ok := r.since[domain]; !ok {
			r.since[domain] = r.zone.Get(domain)
		}
		rec := r.ledger[domain]
		// A name deleted and re-registered between two rebuilds still has
		// the superseded registration's delegation live: it leaves the zone
		// at this rebuild, whatever replaces it.
		for old := rec.newest.prev; old != nil; old = old.prev {
			leaveZone(old, now)
		}
		if op.del {
			r.zone.Remove(domain)
			rec.publish(nil)
			leaveZone(rec.newest, now)
			continue
		}
		r.zone.Add(domain, op.ns)
		rec.publish(&delegatedAnswer{NS: r.zone.Get(domain).NS, A: rec.newest.webAddrs})
		if rec.newest.InZoneAt.IsZero() {
			rec.newest.InZoneAt = now
		}
	}
	r.pending = make(map[string]pendingOp)
	r.serial++
	r.zone.Serial = r.serial
	r.zone.Taken = now
}

// leaveZone stamps reg's exit from the zone at now, if it entered the zone
// and has not left it yet. A registration deleted before any rebuild never
// entered the zone at all — the deepest form of transience: even a
// rapid-zone-update subscriber could not have seen it.
func leaveZone(reg *Registration, now time.Time) {
	if !reg.InZoneAt.IsZero() && reg.OutOfZoneAt.IsZero() {
		reg.OutOfZoneAt = now
	}
}

// publishSnapshot diffs the live zone against the previous publication
// and delivers the diff to subscribers after the configured publication
// delay, but never before the previous publication: a long delay holds
// back the publications behind it, so subscribers receive them in serial
// order.
func (r *Registry) publishSnapshot(now time.Time) {
	r.mu.Lock()
	diff := r.zone.DiffSince(r.since)
	diff.Taken = now
	r.since = make(map[string]*zoneset.Delegation, len(r.since))
	subs := slices.Clone(r.subs)
	at := now
	if r.cfg.SnapshotDelay != nil {
		at = at.Add(r.cfg.SnapshotDelay(r.rng))
	}
	prev := r.delivered
	if at.Before(prev) {
		at = prev
	}
	r.delivered = at
	r.mu.Unlock()
	deliver := func() {
		for _, fn := range subs {
			fn(diff)
		}
	}
	// Deliver now only when nothing is still due at this instant;
	// otherwise the clock fires this delivery after the one before it.
	if !at.After(now) && prev.Before(now) {
		deliver()
		return
	}
	r.clk.At(at, deliver)
}

// Authoritative queries --------------------------------------------------

// Serial returns the live zone's SOA serial (SOA-probe validation, §4.1).
func (r *Registry) Serial() uint32 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.serial
}

// Delegation answers an NS query at the TLD authoritative servers: the NS
// set for the registered domain covering name, and ok=false for NXDOMAIN.
// Matching the paper's step 3, this is the ground truth for "still in
// zone" checks, immune to lame-delegation noise. The slice is the live
// zone's own: shared and read-only. A later UpdateNS installs a new slice
// at the next rebuild and leaves this one untouched. dnsserver asks it
// once per query, so it reads the zone itself — which a record's live
// delegation mirrors — trying name before its registrable ancestor, like
// Answer.
func (r *Registry) Delegation(name string) (ns []string, ok bool) {
	name = dnsname.Canonical(name)
	r.mu.RLock()
	defer r.mu.RUnlock()
	del := r.zone.Get(name)
	if del == nil {
		if key, ok := r.registrable(name); ok && key != name {
			del = r.zone.Get(key)
		}
	}
	if del == nil {
		return nil, false
	}
	return del.NS, true
}

// registrable returns the name one label below the TLD that covers
// canonical name — name itself, or its ancestor at that depth — as a
// substring of name; ok=false when name is not below the TLD. Those are
// the only names RegisterAt accepts, so the only keys the ledger and the
// zone hold.
func (r *Registry) registrable(name string) (key string, ok bool) {
	tld := r.cfg.TLD
	dot := len(name) - len(tld) - 1
	if dot < 0 || name[dot] != '.' || name[dot+1:] != tld {
		return "", false
	}
	return name[strings.LastIndexByte(name[:dot], '.')+1:], true
}

// lookup returns the ledger record of the registrable name covering
// canonical name, or nil, and whether name is that registrable name
// itself. Ledger keys are only ever registrable names, so name is tried
// as a key first: the common case is one map read, and deriving the
// ancestor measurably costs more than that read when it is not needed.
// Callers hold mu.
func (r *Registry) lookup(name string) (rec *record, exact bool) {
	if rec = r.ledger[name]; rec != nil {
		return rec, true
	}
	if key, ok := r.registrable(name); ok && key != name {
		return r.ledger[key], false
	}
	return nil, false
}

// Answer is what one measurement probe asks a registry about one name.
// Its slices are shared and read-only, exactly as Delegation's and
// WebAddrs' are.
type Answer struct {
	NS        []string     // Delegation(name)'s NS set; nil when not Delegated
	Delegated bool         // Delegation(name)'s ok: name or an ancestor is in the zone
	InZone    bool         // InZone(name): name itself is delegated
	A         []netip.Addr // WebAddrs(name)
}

// answer is the one definition of an Answer, read from the record of the
// registrable name covering the asked name with one atomic load; exact
// says the asked name is the record's own. rec may be nil (a name no one
// registered or resolved). The published pair is immutable, so the answer
// is a consistent cut — no rebuild can land between its parts — with or
// without mu held.
func (rec *record) answer(exact bool) Answer {
	if rec == nil {
		return Answer{}
	}
	live := rec.live.Load()
	if live == nil {
		return Answer{}
	}
	ans := Answer{NS: live.NS, Delegated: true}
	if exact {
		ans.InZone = true
		ans.A = live.A
	}
	return ans
}

// Answer answers a whole probe of name — the NS query, the A query and
// "is this exact name in the zone" — with one record lookup under the read
// lock, then Handle.Answer's read: a consistent cut. It is Resolve without
// creating a record.
func (r *Registry) Answer(name string) Answer {
	name = dnsname.Canonical(name)
	r.mu.RLock()
	rec, exact := r.lookup(name)
	r.mu.RUnlock()
	return rec.answer(exact)
}

// Handle is a name resolved once against a registry: every Answer is one
// atomic load of the answer the ledger record of the registrable name
// covering it publishes — no lock, no string hashing or comparison — and
// sees every registration, re-delegation, deletion and zone rebuild made
// after Resolve. The zero Handle — a name outside the registry's TLD —
// answers the zero Answer. Handles are values, safe for concurrent use.
type Handle struct {
	r     *Registry
	rec   *record
	exact bool // the resolved name is the record's own, not a name below it
}

// Resolve returns the handle for name, creating the ledger record of its
// registrable name if there is none yet: a name watched before it is
// registered, or one that never will be, is exactly what a measurement
// fleet watches when it chases transient and ghost domains.
func (r *Registry) Resolve(name string) Handle {
	name = dnsname.Canonical(name)
	key, ok := r.registrable(name)
	if !ok {
		return Handle{}
	}
	r.mu.RLock()
	rec := r.ledger[key]
	r.mu.RUnlock()
	if rec == nil {
		r.mu.Lock()
		if rec = r.ledger[key]; rec == nil {
			rec = &record{}
			r.ledger[key] = rec
		}
		r.mu.Unlock()
	}
	return Handle{r: r, rec: rec, exact: key == name}
}

// Answer is Registry.Answer of the resolved name, read through the handle.
func (h Handle) Answer() Answer { return h.rec.answer(h.exact) }

// Notify registers fn to be called every time the handle's Answer may
// have changed: after each registration, zone rebuild or deletion that
// republishes the answer of the record behind it, whatever the handle's
// exactness. A call may report an answer equal to the last one; no
// change goes unreported. fn runs synchronously on the mutating
// goroutine — under a Sim clock, inside the mutating clock event — with
// the registry's write lock held, so it must not call back into the
// registry; a lock it takes ranks after the registry's. The zero Handle's
// answer never changes, and Notify on it registers nothing.
func (h Handle) Notify(fn func()) {
	if h.rec == nil {
		return
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	if h.rec.notify == nil {
		h.rec.notify = fn
		return
	}
	h.rec.more = append(h.rec.more, fn)
}

// InZone reports whether domain is currently delegated in the live zone.
func (r *Registry) InZone(domain string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.zone.Contains(domain)
}

// WebAddrs answers an A query for domain: the newest registration's web
// host while domain is delegated in the live zone, nil otherwise. One
// read lock, no copy — the slice is shared with every other caller and
// must not be modified (Lookup returns a private copy for callers that
// want one).
func (r *Registry) WebAddrs(domain string) []netip.Addr {
	return r.Answer(domain).A
}

// ZoneLen returns the live zone delegation count.
func (r *Registry) ZoneLen() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.zone.Len()
}

// ZoneSnapshot clones the live zone as of now, for a zone transfer or a
// rapid zone update service's per-interval diffs.
func (r *Registry) ZoneSnapshot(now time.Time) *zoneset.Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := r.zone.Clone()
	snap.Taken = now
	return snap
}

// RDAP backend -------------------------------------------------------------

// RDAPErrNotSynced marks registrations not yet propagated to RDAP.
var RDAPErrNotSynced = errors.New("registry: rdap data not yet synced")

// RDAPLookup returns the registration data RDAP would serve for domain at
// the current instant: the newest registration that has had RDAPSyncDelay
// to propagate. Deleted domains stop being served once deleted (the "we
// were too late" failure mode).
func (r *Registry) RDAPLookup(domain string) (*Registration, error) {
	return r.RDAPLookupAt(domain, r.clk.Now())
}

// RDAPLookupAt is RDAPLookup evaluated at an explicit instant: the
// sync-delay and deleted-visibility cutoffs are taken at now.
func (r *Registry) RDAPLookupAt(domain string, now time.Time) (*Registration, error) {
	domain = dnsname.Canonical(domain)
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec := r.ledger[domain]
	if rec == nil || rec.newest == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, domain)
	}
	reg := rec.newest
	if reg.Created.Add(r.cfg.RDAPSyncDelay).After(now) {
		return nil, RDAPErrNotSynced // registered, not yet propagated
	}
	if !reg.Deleted.IsZero() && reg.Deleted.Before(now) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, domain)
	}
	cp := reg.copy()
	return &cp, nil
}

// copy returns reg for a caller outside the ledger: its fields, without
// the link to the ledger's older entries.
func (reg *Registration) copy() Registration {
	cp := *reg
	cp.prev = nil
	return cp
}

// Ground truth accessors ----------------------------------------------------

// Lookup returns the newest ledger entry for domain (ground truth; not an
// observable for the measurement pipeline).
func (r *Registry) Lookup(domain string) (*Registration, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec := r.ledger[dnsname.Canonical(domain)]
	if rec == nil || rec.newest == nil {
		return nil, false
	}
	cp := rec.newest.copy()
	return &cp, true
}

// Ledger returns copies of all registrations, sorted by domain then
// creation time. This is the registry's private view used only for
// ground-truth comparisons (.nl experiment, §4.4).
func (r *Registry) Ledger() []Registration {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Registration
	for _, rec := range r.ledger {
		for reg := rec.newest; reg != nil; reg = reg.prev {
			out = append(out, reg.copy())
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Domain != out[j].Domain {
			return out[i].Domain < out[j].Domain
		}
		return out[i].Created.Before(out[j].Created)
	})
	return out
}
