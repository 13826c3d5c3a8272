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
// The ledger keeps one record per registrable name (one label below the
// TLD): every registration of the name and, while it is delegated, the
// probe answer the live zone gives for it — an immutable {NS, A} pair the
// record publishes behind one atomic pointer. That answer is the name's
// zone entry; there is no zone beside the ledger. A record publishes an
// answer exactly while its name is delegated, and the answer's NS is the
// delegation's canonical, sorted NS set. Registrations and zone rebuilds
// replace the answer under the registry's lock, so a Handle — issued once
// by Resolve, for a name that may not be registered yet or any more —
// answers every later probe of its name with one atomic load: no lock, no
// name hashing. A handle's holder may also ask to be told of every
// replacement (Handle.Notify), so it need not re-read an answer that has
// not changed.
//
// A publication is the zone's net change since the previous one (a
// zoneset.Diff), not a copy of the zone, and the registry publishes on
// cadences: the daily one CZDS collects, and any rapid one a subscriber
// starts with SubscribeEvery (the paper's rapid zone updates, every few
// minutes). Each cadence remembers the answer at its previous
// publication of every name a rebuild touches and classifies only those
// names when it publishes, so publishing costs O(names changed). A
// subscriber that folds a cadence's diffs in order holds the zone a
// snapshot at each of its publications would have shown it.
//
// A registration is one block: it holds the Registration, the answer its
// delegation publishes and, for an NS set of at most two names (every
// hosting provider's), both NS arrays — the registration's private copy
// and the zone's canonical sorted set. When a name's first registration
// makes the name's ledger record (Resolve may have made it earlier), the
// record lives in the same block, carved from a registry-owned slab, so
// those registrations allocate once per chunk of blocks; a
// re-registration allocates its block. UpdateNS builds its answer in a
// fresh block, so a published answer is never written: a reader holding
// one holds it unchanged for good.
//
// The ledger records every registration ever made, including domains
// deleted before ever entering a published snapshot — the paper's
// "transient domains". ccTLD-mode registries (InCZDS=false) publish only
// to their own subscribers, never to CZDS, modelling the .nl ground-truth
// vantage of §4.4.
package registry

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"darkdns/internal/dnsname"
	"darkdns/internal/simclock"
	"darkdns/internal/slab"
	"darkdns/internal/zoneset"
)

// Registration is one ledger entry (ground truth). The ledger's own
// entries live in registration blocks (regBlock), beside the answer their
// delegation publishes and, for short NS sets, the arrays NS and that
// answer use. The inline storage stays in the block, not here, so the
// Registration that Ledger or RDAPLookupAt copies out stays 192 bytes.
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

	// zone is the answer the live zone gives for this registration while
	// it is delegated: its NS set canonical and sorted, in an array of its
	// own, and the A answer for WebAddr. It is built whenever NS is set,
	// in a block no earlier answer lives in, and never modified, so a
	// rebuild publishes it as it is and nothing a caller writes reaches it.
	zone *delegatedAnswer
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
	mu     sync.RWMutex
	ledger map[string]*record // keyed by registrable name; the live zone's entries
	// blocks carves the record blocks of names' first registrations; a
	// record lives as long as the registry, so its chunk does too.
	blocks slab.Of[recordBlock]
	serial uint32
	// pending holds the names mutated since the last rebuild; the rebuild
	// delegates each to its newest registration's NS set, or removes it
	// when that registration is deleted.
	pending map[string]struct{}
	// daily is the daily publication, every SnapshotEvery, to subs;
	// rapid holds the cadences SubscribeEvery started, nil while there
	// are none.
	daily cadence
	rapid []*cadence
	// classed is diffSince's scratch: the names of each class, reused.
	classed [3][]string
	// subs is copy-on-write: a publication keeps the list it read while
	// Subscribe installs a new one.
	subs []func(zoneset.Diff)
	// delivered is when the newest daily publication is delivered: no
	// later one is delivered before it, however short its own delay.
	delivered time.Time
	// queued holds the daily publications still waiting out their delay,
	// the oldest at queued[head]. Each has one clock event, the registry
	// itself as a delivery; their instants never decrease in queue order,
	// so the events fire in it.
	queued []publication
	head   int

	// origin anchors the rebuild grid origin + k·ZoneUpdateEvery. A
	// rebuild is armed at the next grid instant only while something is
	// pending (armed), so an idle registry schedules no rebuild at all;
	// stopped cancels arming and any armed rebuild.
	origin  time.Time
	armed   bool
	stopped bool
	rebuild func() // rebuildArmed, bound once
}

// cadence is one publication of the zone's net change, every period of
// its ticker: for each name a rebuild touched since its previous
// publication, since holds the name's answer in that publication (nil:
// not delegated). A publication diffs and clears since, keeping its
// table.
type cadence struct {
	since  map[string]*delegatedAnswer
	ticker *simclock.Ticker
}

// note records ans as name's answer in the cadence's previous
// publication, unless a rebuild since then already did.
func (c *cadence) note(name string, ans *delegatedAnswer) {
	if _, ok := c.since[name]; !ok {
		c.since[name] = ans
	}
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
	// notify and more are the listeners Handle.Listen registered, told
	// after every store of live. The first is held inline: almost every
	// record has at most one watcher, and it then costs no slice.
	notify Listener
	more   []Listener
}

// publish stores ans as the record's live answer and tells every
// registered listener, in registration order. The caller holds mu.
func (rec *record) publish(ans *delegatedAnswer) {
	rec.live.Store(ans)
	if rec.notify == nil {
		return
	}
	rec.notify.AnswerChanged()
	for _, l := range rec.more {
		l.AnswerChanged()
	}
}

// delegatedAnswer is what a probe of a delegated name reads, as one
// consistent cut: the name's zone entry — its canonical, sorted NS set —
// and the newest registration's A answer. It is never modified once
// published; a change publishes a new one.
type delegatedAnswer struct {
	NS []string
	A  []netip.Addr
	a  [1]netip.Addr // A's array when the answer was built for a web host
}

// inlineNS is the longest NS set an answer block holds inline. Every
// hosting provider's set is a pair; a longer one costs one more
// allocation.
const inlineNS = 2

// answerBlock is one allocation holding a delegation's answer and, for an
// NS set of at most inlineNS names, both its arrays: the zone's canonical
// sorted set and the registration's private copy in the caller's order.
// UpdateNS allocates one per call.
type answerBlock struct {
	ans  delegatedAnswer
	zone [inlineNS]string
	own  [inlineNS]string
}

// regBlock is a registration with its first answer: the one allocation a
// re-registration of a name makes.
type regBlock struct {
	answerBlock
	reg Registration
}

// recordBlock is a name's ledger record with its first registration: what
// a name's first RegisterAt takes from the registry's slab when no Resolve
// made the record before it. The blocks lead with what a probe reads —
// the record, the answer it publishes, the answer's NS set — so that read
// touches the block's first three cache lines; with the Registration
// first it would touch four lines spread over the 384-byte block.
type recordBlock struct {
	rec record
	regBlock
}

// delegate installs a private copy of ns as reg's NS and builds in blk the
// answer reg's delegation publishes (reg.zone), whose A answer is
// reg.WebAddr's. The copy and the zone's canonical and sorted NS set are
// two arrays — blk's own for a short set, one fresh allocation split in
// two for a longer one — so neither the caller's ns nor a write to reg.NS
// reaches the zone. blk must be fresh: nothing published may point into
// it. An empty ns delegates to nil.
func (reg *Registration) delegate(ns []string, blk *answerBlock) {
	var own, zone []string
	switch n := len(ns); {
	case n > inlineNS:
		buf := make([]string, 2*n)
		own, zone = buf[:n:n], buf[n:]
	case n > 0:
		own, zone = blk.own[:n:n], blk.zone[:n:n]
	}
	copy(own, ns)
	for i, name := range ns {
		zone[i] = dnsname.Canonical(name)
	}
	slices.Sort(zone)
	reg.NS = own
	blk.ans.NS = zone
	if reg.WebAddr.IsValid() {
		blk.ans.a[0] = reg.WebAddr
		blk.ans.A = blk.ans.a[:]
	}
	reg.zone = &blk.ans
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
	cfg.TLD = dnsname.Canonical(cfg.TLD)
	r := &Registry{
		cfg:     cfg,
		clk:     clk,
		rng:     rng,
		ledger:  make(map[string]*record),
		serial:  1,
		pending: make(map[string]struct{}),
		daily:   cadence{since: make(map[string]*delegatedAnswer)},
		origin:  clk.Now(),
	}
	r.rebuild = r.rebuildArmed
	// Every registry generates daily zone files; InCZDS only controls
	// whether ICANN's CZDS redistributes them (ccTLDs keep theirs
	// private, which is exactly the paper's §4.4 visibility asymmetry).
	r.daily.ticker = simclock.NewTicker(clk, cfg.SnapshotEvery, func(now time.Time) { r.publishSnapshot(now) })
	return r
}

// Stop halts the registry's zone rebuilds and the publications of every
// cadence.
func (r *Registry) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
	r.daily.ticker.Stop()
	for _, c := range r.rapid {
		c.ticker.Stop()
	}
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
	// The full slice expression makes append copy, so the list a queued
	// publication holds never changes under it.
	r.subs = append(r.subs[:len(r.subs):len(r.subs)], fn)
	r.mu.Unlock()
}

// SubscribeEvery starts a rapid cadence: fn receives the zone's change
// every period from now on, in the clock event of each period's end,
// until stop is called or the registry stops. It is the daily
// publication without its delay — a diff is delivered when it is taken,
// and the registry's random source is not drawn — and its first diff is
// taken against the empty zone: subscribing notes every name delegated
// now as not delegated at the cadence's previous publication, the one
// walk of the ledger a cadence makes. fn must not modify the diff.
func (r *Registry) SubscribeEvery(period time.Duration, fn func(zoneset.Diff)) (stop func()) {
	c := &cadence{since: make(map[string]*delegatedAnswer)}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, rec := range r.ledger {
		if rec.live.Load() != nil {
			c.since[name] = nil
		}
	}
	c.ticker = simclock.NewTicker(r.clk, period, func(now time.Time) {
		r.mu.Lock()
		d := r.diffSince(c, now)
		r.mu.Unlock()
		fn(d)
	})
	r.rapid = append(r.rapid, c)
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		c.ticker.Stop()
		r.rapid = slices.DeleteFunc(r.rapid, func(o *cadence) bool { return o == c })
	}
}

// Register creates a new active registration stamped at the clock's
// current instant.
func (r *Registry) Register(domain, registrar string, ns []string, web netip.Addr) (*Registration, error) {
	return r.RegisterAt(domain, registrar, ns, web, r.clk.Now())
}

// RegisterAt creates a new active registration stamped at an explicit
// instant, for a caller that already holds the instant it registers at.
// Only a registrable name — one label below the TLD — is accepted, so the
// zone never delegates anything else. The returned registration is the
// ledger's own entry and must be treated as read-only; its NS slice is
// its own, not the live zone's, so a write to it leaves every answer as
// it was. A registration is one block, which also holds the name's ledger
// record when this registration makes it; that block comes from the
// registry's slab, any other is one allocation.
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
	var blk *regBlock
	if rec == nil {
		rb := r.blocks.New()
		rec, blk = &rb.rec, &rb.regBlock
		r.ledger[domain] = rec
	} else {
		blk = new(regBlock)
	}
	reg := &blk.reg
	*reg = Registration{
		Domain:    domain,
		Registrar: registrar,
		Created:   at,
		WebAddr:   web,
	}
	reg.delegate(ns, &blk.answerBlock)
	reg.prev, rec.newest = rec.newest, reg
	// A name deleted but not yet rebuilt out of the zone is still
	// delegated, and its A answer is the newest registration's from now
	// on. Two nil answers are the same answer.
	if cur := rec.live.Load(); cur != nil && (cur.A != nil || reg.zone.A != nil) {
		rec.publish(&delegatedAnswer{NS: cur.NS, A: reg.zone.A})
	}
	r.pend(domain)
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
	r.pend(domain)
	return nil
}

// UpdateNS changes the delegation of an active registration (the 2.5 % of
// NRDs in §4.1 that swap NS infrastructure within 24 h). The new answer
// and NS arrays go in one fresh block: the answer the zone may still
// publish, and the NS slice a caller may still hold, stay as they were.
func (r *Registry) UpdateNS(domain string, ns []string) error {
	domain = dnsname.Canonical(domain)
	r.mu.Lock()
	defer r.mu.Unlock()
	reg := r.ledger[domain].active()
	if reg == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, domain)
	}
	reg.delegate(ns, new(answerBlock))
	r.pend(domain)
	return nil
}

// pend marks domain as changed since the last rebuild and, unless one is
// already armed, arms a rebuild at the first grid instant origin +
// k·ZoneUpdateEvery strictly after the clock's now: the instant the
// registry's cadence would next have rebuilt the zone. The caller holds
// mu; scheduling under it is safe because a clock never calls back while
// scheduling.
func (r *Registry) pend(domain string) {
	r.pending[domain] = struct{}{}
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

// rebuildZone applies the pending changes at now: each pending name is
// delegated to its newest registration's NS set, or leaves the zone when
// that registration is deleted. The caller holds mu.
func (r *Registry) rebuildZone(now time.Time) {
	if len(r.pending) == 0 {
		return
	}
	for domain := range r.pending {
		rec := r.ledger[domain]
		live := rec.live.Load()
		r.daily.note(domain, live)
		for _, c := range r.rapid {
			c.note(domain, live)
		}
		// A name deleted and re-registered between two rebuilds still has
		// the superseded registration's delegation live: it leaves the zone
		// at this rebuild, whatever replaces it.
		for old := rec.newest.prev; old != nil; old = old.prev {
			leaveZone(old, now)
		}
		reg := rec.active()
		if reg == nil {
			rec.publish(nil)
			leaveZone(rec.newest, now)
			continue
		}
		rec.publish(reg.zone)
		if reg.InZoneAt.IsZero() {
			reg.InZoneAt = now
		}
	}
	clear(r.pending)
	r.serial++
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

// publication is one daily diff and the subscribers it goes to.
type publication struct {
	diff zoneset.Diff
	subs []func(zoneset.Diff)
}

// publishSnapshot is the daily cadence's publication: it diffs the live
// zone against the previous publication and delivers the diff to
// subscribers after the configured publication delay, but never before
// the previous publication: a long delay holds back the publications
// behind it, so subscribers receive them in serial order. A publication
// allocates only its diff's one array of names.
func (r *Registry) publishSnapshot(now time.Time) {
	r.mu.Lock()
	pub := publication{diff: r.diffSince(&r.daily, now), subs: r.subs}
	at := now
	if r.cfg.SnapshotDelay != nil {
		at = at.Add(r.cfg.SnapshotDelay(r.rng))
	}
	prev := r.delivered
	if at.Before(prev) {
		at = prev
	}
	r.delivered = at
	// Deliver now only when nothing is still due at this instant;
	// otherwise the clock fires this delivery after the one before it.
	immediate := !at.After(now) && prev.Before(now)
	if !immediate {
		r.queued = append(r.queued, pub)
	}
	r.mu.Unlock()
	if immediate {
		pub.deliverTo()
		return
	}
	r.clk.Schedule(at, (*delivery)(r))
}

// delivery is the registry as a queued publication's clock event, so a
// publication binds no callback: Fire delivers the oldest queued
// publication, which is the one the event was scheduled for.
type delivery Registry

func (d *delivery) Fire() {
	r := (*Registry)(d)
	r.mu.Lock()
	pub := r.queued[r.head]
	r.queued[r.head] = publication{}
	if r.head++; r.head == len(r.queued) {
		r.queued, r.head = r.queued[:0], 0
	}
	r.mu.Unlock()
	pub.deliverTo()
}

// deliverTo hands the diff to each of the publication's subscribers, in
// subscription order.
func (p publication) deliverTo() {
	for _, fn := range p.subs {
		fn(p.diff)
	}
}

// diffSince classifies the names in the cadence's since table, each by
// its answer at the cadence's previous publication against its record's
// answer now — the diff of the two zones, since every name outside the
// table is the same in both — heads the diff with the current serial and
// now, and clears the table for the next publication. Added, Removed and
// Changed are capped, sorted sub-slices of one array: a diff costs one
// allocation however many names it holds, and none when it holds none.
// The caller holds mu.
func (r *Registry) diffSince(cad *cadence, now time.Time) zoneset.Diff {
	const added, removed, changed = 0, 1, 2
	c := &r.classed
	for dom, old := range cad.since {
		cur := r.ledger[dom].live.Load()
		switch {
		case old == nil && cur != nil:
			c[added] = append(c[added], dom)
		case old != nil && cur == nil:
			c[removed] = append(c[removed], dom)
		case old != nil && !slices.Equal(old.NS, cur.NS):
			c[changed] = append(c[changed], dom)
		}
	}
	names := make([]string, 0, len(c[added])+len(c[removed])+len(c[changed]))
	var parts [3][]string
	for k := range c {
		if len(c[k]) == 0 {
			continue
		}
		n := len(names)
		names = append(names, c[k]...)
		parts[k] = names[n:len(names):len(names)]
		slices.Sort(parts[k])
		c[k] = c[k][:0]
	}
	clear(cad.since)
	return zoneset.Diff{TLD: r.cfg.TLD, Serial: r.serial, Taken: now,
		Added: parts[added], Removed: parts[removed], Changed: parts[changed]}
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
// zone" checks, immune to lame-delegation noise. It is Answer's NS and
// Delegated: the zone entry the covering name's record publishes. The
// slice is shared and read-only; a later UpdateNS publishes a new one at
// the next rebuild and leaves this one untouched.
func (r *Registry) Delegation(name string) (ns []string, ok bool) {
	a := r.Answer(name)
	return a.NS, a.Delegated
}

// registrable returns the name one label below the TLD that covers
// canonical name — name itself, or its ancestor at that depth — as a
// substring of name; ok=false when name is not below the TLD. Those are
// the only names RegisterAt accepts, so the only keys the ledger holds.
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

// A Listener is told every time a handle's Answer may have changed.
type Listener interface{ AnswerChanged() }

// Listen registers l to be told every time the handle's Answer may have
// changed: after each registration, zone rebuild or deletion that
// republishes the answer of the record behind it, whatever the handle's
// exactness. A call may report an answer equal to the last one; no
// change goes unreported. AnswerChanged runs synchronously on the
// mutating goroutine — under a Sim clock, inside the mutating clock event
// — with the registry's write lock held, so it must not call back into
// the registry; a lock it takes ranks after the registry's. The zero
// Handle's answer never changes, and Listen on it registers nothing.
// A listener that already exists, such as a measurement fleet's watch
// state, costs the record no allocation of its own.
func (h Handle) Listen(l Listener) {
	if h.rec == nil {
		return
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	if h.rec.notify == nil {
		h.rec.notify = l
		return
	}
	h.rec.more = append(h.rec.more, l)
}

// Notify is Listen for a callback: fn is called where a Listener's
// AnswerChanged would be.
func (h Handle) Notify(fn func()) { h.Listen(funcListener(fn)) }

// funcListener adapts a callback to Listener.
type funcListener func()

func (fn funcListener) AnswerChanged() { fn() }

// InZone reports whether domain is currently delegated in the live zone:
// Answer's InZone.
func (r *Registry) InZone(domain string) bool { return r.Answer(domain).InZone }

// WebAddrs answers an A query for domain: the newest registration's web
// host while domain is delegated in the live zone, nil otherwise. One
// read lock, no copy — the slice is shared with every other caller and
// must not be modified (Lookup returns a private copy for callers that
// want one).
func (r *Registry) WebAddrs(domain string) []netip.Addr {
	return r.Answer(domain).A
}

// RDAP backend -------------------------------------------------------------

// RDAPErrNotSynced marks registrations not yet propagated to RDAP.
var RDAPErrNotSynced = errors.New("registry: rdap data not yet synced")

// RDAPLookup returns the registration data RDAP would serve for domain at
// the current instant: the newest registration that has had RDAPSyncDelay
// to propagate. Deleted domains stop being served once deleted (the "we
// were too late" failure mode). The registration is returned by value,
// so a lookup allocates nothing.
func (r *Registry) RDAPLookup(domain string) (Registration, error) {
	return r.RDAPLookupAt(domain, r.clk.Now())
}

// RDAPLookupAt is RDAPLookup evaluated at an explicit instant: the
// sync-delay and deleted-visibility cutoffs are taken at now.
func (r *Registry) RDAPLookupAt(domain string, now time.Time) (Registration, error) {
	domain = dnsname.Canonical(domain)
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec := r.ledger[domain]
	if rec == nil || rec.newest == nil {
		return Registration{}, fmt.Errorf("%w: %s", ErrNotFound, domain)
	}
	reg := rec.newest
	if reg.Created.Add(r.cfg.RDAPSyncDelay).After(now) {
		return Registration{}, RDAPErrNotSynced // registered, not yet propagated
	}
	if !reg.Deleted.IsZero() && reg.Deleted.Before(now) {
		return Registration{}, fmt.Errorf("%w: %s", ErrNotFound, domain)
	}
	return reg.copy(), nil
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
// observable for the measurement pipeline), as a value: the caller's copy,
// with no heap allocation of its own.
func (r *Registry) Lookup(domain string) (Registration, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec := r.ledger[dnsname.Canonical(domain)]
	if rec == nil || rec.newest == nil {
		return Registration{}, false
	}
	return rec.newest.copy(), true
}

// Ledger yields every registration the registry ever made, each name's
// newest first, the names in no particular order. This is the registry's
// private view used only for ground-truth comparisons (.nl experiment,
// §4.4). It walks the ledger in place under the registry's read lock,
// yielding one copy per entry, so it allocates nothing; yield must not
// call back into r.
func (r *Registry) Ledger() iter.Seq[Registration] {
	return func(yield func(Registration) bool) {
		r.mu.RLock()
		defer r.mu.RUnlock()
		for _, rec := range r.ledger {
			for reg := rec.newest; reg != nil; reg = reg.prev {
				if !yield(reg.copy()) {
					return
				}
			}
		}
	}
}
