// Package registry simulates a TLD registry: the ground-truth registration
// ledger, the live zone rebuilt on the registry's operational cadence
// (com/net every 60 s, most gTLDs every 15–30 min — the driver behind the
// per-TLD detection-delay differences in Figure 1), daily zone-file
// snapshot publication for CZDS, and the registry-side RDAP data store.
//
// The ledger records every registration ever made, including domains
// deleted before ever entering a published snapshot — the paper's
// "transient domains". ccTLD-mode registries (InCZDS=false) keep a ledger
// and a live zone but publish no snapshots, modelling the .nl ground-truth
// vantage of §4.4.
package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"sync"
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

// SnapshotFunc receives published zone snapshots (CZDS collection path).
type SnapshotFunc func(snap *zoneset.Snapshot)

// Registry is a simulated TLD registry.
type Registry struct {
	cfg Config
	clk simclock.Clock
	rng *rand.Rand

	// mu is read-locked by the authoritative and RDAP query paths — the
	// fleet's probe workers hit them concurrently, millions of times per
	// campaign — and write-locked by ledger mutations and zone rebuilds.
	mu      sync.RWMutex
	ledger  map[string][]*Registration // all registrations, newest last
	zone    *zoneset.Snapshot          // live zone
	serial  uint32
	pending map[string]pendingOp
	subs    []SnapshotFunc

	zoneTicker *simclock.Ticker
	snapTicker *simclock.Ticker
}

type pendingOp struct {
	del bool
	ns  []string
}

// New creates a registry and starts its zone-rebuild and snapshot tickers
// on clk. The rng drives publication-delay sampling and must be dedicated
// to this registry for determinism.
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
		ledger:  make(map[string][]*Registration),
		zone:    zoneset.NewSnapshot(cfg.TLD, 1, clk.Now()),
		serial:  1,
		pending: make(map[string]pendingOp),
	}
	r.zoneTicker = simclock.NewTicker(clk, cfg.ZoneUpdateEvery, func(now time.Time) { r.rebuildZone(now) })
	// Every registry generates daily zone files; InCZDS only controls
	// whether ICANN's CZDS redistributes them (ccTLDs keep theirs
	// private, which is exactly the paper's §4.4 visibility asymmetry).
	r.snapTicker = simclock.NewTicker(clk, cfg.SnapshotEvery, func(now time.Time) { r.publishSnapshot(now) })
	return r
}

// Stop halts the registry's tickers.
func (r *Registry) Stop() {
	r.zoneTicker.Stop()
	r.snapTicker.Stop()
}

// TLD returns the registry's zone apex.
func (r *Registry) TLD() string { return r.cfg.TLD }

// InCZDS reports whether the registry publishes snapshots to CZDS.
func (r *Registry) InCZDS() bool { return r.cfg.InCZDS }

// Subscribe registers fn to receive every future published snapshot.
func (r *Registry) Subscribe(fn SnapshotFunc) {
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
func (r *Registry) RegisterAt(domain, registrar string, ns []string, web netip.Addr, at time.Time) (*Registration, error) {
	domain = dnsname.Canonical(domain)
	if dnsname.TLD(domain) != r.cfg.TLD || dnsname.CountLabels(domain) != dnsname.CountLabels(r.cfg.TLD)+1 {
		return nil, fmt.Errorf("%w: %s under %s", ErrWrongZone, domain, r.cfg.TLD)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if regs := r.ledger[domain]; len(regs) > 0 && regs[len(regs)-1].Deleted.IsZero() {
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
	r.ledger[domain] = append(r.ledger[domain], reg)
	r.pending[domain] = pendingOp{ns: reg.NS}
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
	regs := r.ledger[domain]
	if len(regs) == 0 || !regs[len(regs)-1].Deleted.IsZero() {
		return fmt.Errorf("%w: %s", ErrNotFound, domain)
	}
	regs[len(regs)-1].Deleted = at
	r.pending[domain] = pendingOp{del: true}
	return nil
}

// UpdateNS changes the delegation of an active registration (the 2.5 % of
// NRDs in §4.1 that swap NS infrastructure within 24 h).
func (r *Registry) UpdateNS(domain string, ns []string) error {
	domain = dnsname.Canonical(domain)
	r.mu.Lock()
	defer r.mu.Unlock()
	regs := r.ledger[domain]
	if len(regs) == 0 || !regs[len(regs)-1].Deleted.IsZero() {
		return fmt.Errorf("%w: %s", ErrNotFound, domain)
	}
	reg := regs[len(regs)-1]
	reg.NS = append([]string(nil), ns...)
	if op, ok := r.pending[domain]; !ok || !op.del {
		r.pending[domain] = pendingOp{ns: reg.NS}
	}
	return nil
}

// rebuildZone applies pending operations on the registry's cadence.
func (r *Registry) rebuildZone(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.pending) == 0 {
		return
	}
	for domain, op := range r.pending {
		regs := r.ledger[domain]
		latest := regs[len(regs)-1]
		if op.del {
			r.zone.Remove(domain)
			// A registration deleted before any rebuild never entered
			// the zone at all — the deepest form of transience: even a
			// rapid-zone-update subscriber could not have seen it.
			if !latest.InZoneAt.IsZero() && latest.OutOfZoneAt.IsZero() {
				latest.OutOfZoneAt = now
			}
			continue
		}
		r.zone.Add(domain, op.ns)
		if latest.InZoneAt.IsZero() {
			latest.InZoneAt = now
		}
	}
	r.pending = make(map[string]pendingOp)
	r.serial++
	r.zone.Serial = r.serial
	r.zone.Taken = now
}

// publishSnapshot clones the live zone and delivers it to subscribers
// after the configured publication delay.
func (r *Registry) publishSnapshot(now time.Time) {
	r.mu.Lock()
	snap := r.zone.Clone()
	snap.Taken = now
	subs := append([]SnapshotFunc(nil), r.subs...)
	delay := time.Duration(0)
	if r.cfg.SnapshotDelay != nil {
		delay = r.cfg.SnapshotDelay(r.rng)
	}
	r.mu.Unlock()
	deliver := func() {
		for _, fn := range subs {
			fn(snap)
		}
	}
	if delay <= 0 {
		deliver()
		return
	}
	r.clk.After(delay, deliver)
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
// at the next rebuild and leaves this one untouched.
func (r *Registry) Delegation(name string) (ns []string, ok bool) {
	name = dnsname.Canonical(name)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if del := r.covering(name); del != nil {
		return del.NS, true
	}
	return nil, false
}

// covering returns the live zone's delegation for the registered domain
// covering canonical name — name itself or its nearest delegated ancestor
// below the TLD — or nil. Callers hold mu.
func (r *Registry) covering(name string) *zoneset.Delegation {
	for cur := name; cur != "" && cur != r.cfg.TLD; cur = dnsname.Parent(cur) {
		if del := r.zone.Get(cur); del != nil {
			return del
		}
	}
	return nil
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

// Answer answers a whole probe of name — the NS query, the A query and
// "is this exact name in the zone" — under one read lock and in one walk:
// the same results as Delegation, WebAddrs and InZone called in turn, but
// a consistent cut (no rebuild can land between the parts) at a third of
// the locking and lookups. The ledger is consulted only when name itself
// is delegated.
func (r *Registry) Answer(name string) Answer {
	name = dnsname.Canonical(name)
	r.mu.RLock()
	defer r.mu.RUnlock()
	del := r.covering(name)
	if del == nil {
		return Answer{}
	}
	ans := Answer{NS: del.NS, Delegated: true}
	if del.Domain == name {
		ans.InZone = true
		if regs := r.ledger[name]; len(regs) > 0 {
			ans.A = regs[len(regs)-1].webAddrs
		}
	}
	return ans
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
	domain = dnsname.Canonical(domain)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.zone.Contains(domain) {
		return nil
	}
	regs := r.ledger[domain]
	if len(regs) == 0 {
		return nil
	}
	return regs[len(regs)-1].webAddrs
}

// ZoneLen returns the live zone delegation count.
func (r *Registry) ZoneLen() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.zone.Len()
}

// ZoneSnapshot clones the live zone as of now — the registry-side
// operation behind both daily snapshot publication and a rapid zone
// update service's per-interval diffs.
func (r *Registry) ZoneSnapshot(now time.Time) *zoneset.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
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
	regs := r.ledger[domain]
	for i := len(regs) - 1; i >= 0; i-- {
		reg := regs[i]
		if reg.Created.Add(r.cfg.RDAPSyncDelay).After(now) {
			// Newest registration exists but has not propagated.
			if i == len(regs)-1 {
				return nil, RDAPErrNotSynced
			}
			continue
		}
		if !reg.Deleted.IsZero() && reg.Deleted.Before(now) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, domain)
		}
		cp := *reg
		return &cp, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, domain)
}

// Ground truth accessors ----------------------------------------------------

// Lookup returns the newest ledger entry for domain (ground truth; not an
// observable for the measurement pipeline).
func (r *Registry) Lookup(domain string) (*Registration, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	regs := r.ledger[dnsname.Canonical(domain)]
	if len(regs) == 0 {
		return nil, false
	}
	cp := *regs[len(regs)-1]
	return &cp, true
}

// Ledger returns copies of all registrations, sorted by domain then
// creation time. This is the registry's private view used only for
// ground-truth comparisons (.nl experiment, §4.4).
func (r *Registry) Ledger() []Registration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Registration
	for _, regs := range r.ledger {
		for _, reg := range regs {
			out = append(out, *reg)
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
