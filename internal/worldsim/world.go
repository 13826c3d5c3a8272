// Package worldsim generates the ground-truth DNS world the DarkDNS
// pipeline observes: TLD registries with live zones and daily snapshots,
// registrars registering and taking down domains, CAs logging
// precertificates to CT, a passive-DNS NOD feed, public blocklists, and
// historical zone data. All stochastic choices derive from a single seed,
// so a run is reproducible bit-for-bit.
//
// Worlds are built in two phases. The compile phase lays every plan out
// as a pure Layout value — each TLD's registrations, ghosts and feed
// seedings drawn from its own subseed-derived RNG stream (layout.go) —
// on a worker pool of the configured build width. The commit phase
// (builder.go) installs layouts at the commit width (both widths are
// fields of workpool.Engines): per-layout record installs land
// on the 64-way sharded DomainStore and substrate seedings
// (NOD/blocklist/DZDB/DV tokens) are commutative across the distinct
// names different layouts own, so they fan out too; only the ghost
// ledger and the clock-timeline installs (ScheduleBatch assigns event
// sequence numbers) stay serial in canonical (plan, chunk) order.
//
// Determinism contract (DESIGN.md §2, §8–§9): worlds — and the campaign
// reports computed from them — are byte-identical at any build and commit
// width, alone or combined with every other workpool.Engines setting.
//
// The measurement fleet sees a world through ProbeBackend (backend.go),
// which issues measure handles: a watched name is resolved once, to its
// registry's ledger record and its ground-truth mail answers, and every
// later probe reads through that handle rather than looking the name up.
package worldsim

import (
	"math/rand"
	"sync/atomic"
	"time"

	"darkdns/internal/blocklist"
	"darkdns/internal/ca"
	"darkdns/internal/certstream"
	"darkdns/internal/ct"
	"darkdns/internal/czds"
	"darkdns/internal/dnsname"
	"darkdns/internal/noddfeed"
	"darkdns/internal/rdap"
	"darkdns/internal/registrar"
	"darkdns/internal/registry"
	"darkdns/internal/simclock"
	"darkdns/internal/workpool"
)

// Config parameterizes a world.
type Config struct {
	Seed  int64
	Start time.Time  // window start (paper: 2023-11-01)
	Weeks int        // window length in weeks (paper: ~13)
	Scale float64    // fraction of paper volumes to generate
	Plans []TLDPlan  // nil → PaperPlans(); plans must have distinct TLDs
	CCTLD *CCTLDPlan // nil → PaperCCTLD()
	// Engines carries the concurrency settings; the builder reads
	// BuildWorkers and CommitWorkers. Like SnapshotPath they change how a
	// world is built, never what it is.
	workpool.Engines
	// FastDeletedMultiplier converts Table 2 detected-transient targets
	// into ground-truth fast-deleted registrations. Detected transients
	// are the subset that obtain a certificate before dying AND miss
	// every daily snapshot; the multiplier compensates for both losses.
	FastDeletedMultiplier float64
	// TransientCertRate is the probability a gTLD fast-deleted domain
	// requests a certificate.
	TransientCertRate float64
	// GhostRate scales stale-DV-token issuances (certificates for
	// domains that no longer exist) relative to the Table 2 transient
	// target — the cause-iii RDAP failures of §4.2.
	GhostRate float64
	// EarlyRemovedRate is the fraction of long-lived NRDs deleted before
	// the window's end (paper: ≈10 %).
	EarlyRemovedRate float64
	// NSChangeRate is the fraction of NRDs that swap nameserver
	// infrastructure within their first 24 h (paper §4.1: 2.5 %).
	NSChangeRate float64
	// ReRegistrationRate is the fraction of abusive domains that are
	// re-registrations of previously flagged names (§4.3: ≈3 % of
	// flagged NRDs were listed before their registration date).
	ReRegistrationRate float64
	// NODRateWithCert / NODRateNoCert are the passive-DNS detection
	// probabilities conditioned on certificate issuance (§4.4 overlap).
	NODRateWithCert float64
	NODRateNoCert   float64
	// SnapshotPath, when set, names a persistent columnar world snapshot
	// (snapshot.go): a matching snapshot replaces the compile fan-out
	// with a decode that feeds the commit engine directly, and a miss
	// compiles then saves back to the path. Like the worker widths, the
	// path changes how a world is built, never what it is.
	SnapshotPath string
}

// withDefaults normalizes the zero-value knobs the same way New always
// has. Factored out so snapshot keying (shapeHash) and the standalone
// compiler (CompileLayoutSet) see the identical effective config.
func (cfg Config) withDefaults() Config {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.001
	}
	if cfg.Plans == nil {
		cfg.Plans = PaperPlans()
	}
	if cfg.CCTLD == nil {
		p := PaperCCTLD()
		cfg.CCTLD = &p
	}
	if cfg.Weeks <= 0 {
		cfg.Weeks = 13
	}
	return cfg
}

// DefaultConfig returns the calibrated paper-shape configuration.
func DefaultConfig(seed int64, scale float64) Config {
	return Config{
		Seed:                  seed,
		Start:                 time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC),
		Weeks:                 13,
		Scale:                 scale,
		FastDeletedMultiplier: 2.0,
		TransientCertRate:     0.75,
		GhostRate:             0.55,
		EarlyRemovedRate:      0.10,
		NSChangeRate:          0.025,
		ReRegistrationRate:    0.03,
		NODRateWithCert:       0.62,
		NODRateNoCert:         0.32,
	}
}

// Domain is the ground-truth record of one generated registration.
type Domain struct {
	Name       string
	TLD        string
	Registrar  string
	Created    time.Time
	Lifetime   time.Duration // 0 = survives the window
	FastDelete bool          // deleted within 24 h (transient candidate)
	Malicious  bool
	Reason     registrar.RemovalReason
	CertAsked  bool
	DNSHost    string
	WebHost    string
	HasMX      bool // publishes MX records
	HasSPF     bool // publishes an SPF TXT policy
	Ghost      bool // CT entry without a live registration
}

// World owns every substrate plus the ground truth that produced them.
type World struct {
	Cfg   Config
	Clock *simclock.Sim

	Registries map[string]*registry.Registry
	CZDS       *czds.Service
	// CCZones is the researcher-access zone collection for the ccTLD
	// (the paper's team had .nl zone data via OpenINTEL even though .nl
	// is not in CZDS).
	CCZones *czds.Service
	// Logs are the CT logs CAs submit to (multiple logs, as in the real
	// ecosystem; the certstream hub merges them and the pipeline
	// deduplicates by domain). Log is the first, kept for convenience.
	Logs       []*ct.Log
	Log        *ct.Log
	Hub        *certstream.Hub
	CAs        []*ca.CA
	Blocklists *blocklist.Aggregator
	NOD        *noddfeed.Feed
	RDAP       *rdap.Mux

	// Domains is the ground truth, keyed by domain name: a 64-way
	// sharded store (Get/Range/Len) the parallel commit engine installs
	// into concurrently.
	Domains *DomainStore
	// Ghosts are CT-only issuances for long-dead domains.
	Ghosts []*Domain

	windowEnd time.Time
	// dupNames counts commit-phase name collisions between layouts. Zero
	// for any config with distinct plan TLDs (the determinism tests'
	// world-wide uniqueness invariant). Atomic: layouts install
	// concurrently under the commit engine.
	dupNames atomic.Int64
}

// Window returns the observation window [start, end).
func (w *World) Window() (time.Time, time.Time) { return w.Cfg.Start, w.windowEnd }

// caNames are the issuing CAs the simulator distributes issuance across
// (the paper names GlobalSign, Sectigo and Cloudflare as the CAs it
// contacted about stale-token issuance; LetsEncrypt dominates volume).
var caNames = []string{"LetsEncrypt", "GlobalSign", "Sectigo", "CloudflareCA"}

// New builds a world and schedules every ground-truth event on its clock.
// Call Run (or step the clock manually) to execute the timeline.
func New(cfg Config) *World {
	cfg = cfg.withDefaults()
	w := &World{
		Cfg:        cfg,
		Clock:      simclock.NewSim(cfg.Start),
		Registries: make(map[string]*registry.Registry),
		CZDS:       czds.New(),
		Hub:        certstream.NewHub(),
		Blocklists: blocklist.NewAggregator(nil),
		RDAP:       rdap.NewMux(),
	}
	w.windowEnd = cfg.Start.Add(time.Duration(cfg.Weeks) * 7 * 24 * time.Hour)
	w.NOD = noddfeed.New(noddfeed.DefaultConfig())

	w.Logs = []*ct.Log{ct.NewLog("argon-sim", nil), ct.NewLog("xenon-sim", nil)}
	w.Log = w.Logs[0]
	for _, l := range w.Logs {
		w.Hub.Attach(l, w.Clock.Now)
	}

	// Registries: one per plan plus the ccTLD.
	tlds := make([]string, 0, len(cfg.Plans)+1)
	for _, p := range cfg.Plans {
		tlds = append(tlds, p.TLD)
	}
	tlds = append(tlds, cfg.CCTLD.TLD)
	w.CCZones = czds.New()
	for _, tld := range tlds {
		rcfg := registry.DefaultConfig(tld)
		rcfg.SnapshotDelay = snapshotDelay
		reg := registry.New(rcfg, w.Clock, rand.New(rand.NewSource(subseed(cfg.Seed, "registry/"+tld))))
		w.Registries[tld] = reg
		w.CZDS.Collect(reg)
		if !reg.InCZDS() {
			reg.Subscribe(w.CCZones.Ingest)
		}
		w.RDAP.Handle(tld, rdapBackend{reg})
	}

	// CAs validate against the union of live zones.
	resolver := ca.ResolverFunc(w.resolves)
	for i, name := range caNames {
		w.CAs = append(w.CAs, ca.New(ca.Config{Name: name}, w.Clock,
			rand.New(rand.NewSource(subseed(cfg.Seed, "ca/"+name))), resolver, w.Logs[i%len(w.Logs)]))
	}

	// Two-phase build: compile pure per-plan layouts (in parallel when
	// BuildWorkers is set) — or decode them from a snapshot when
	// Config.SnapshotPath hits — then commit them through the parallel
	// commit engine (CommitWorkers wide; the order-sensitive remainder
	// stays serial in canonical plan order).
	env := &buildEnv{
		cfg:    &w.Cfg,
		numCAs: len(w.CAs),
		lists:  w.Blocklists.Models(),
		nodCfg: w.NOD.Config(),
	}
	w.commit(layoutsFor(env))
	return w
}

// Stop halts the registries' zone rebuilds and snapshot tickers (for
// tests that abandon a world early).
func (w *World) Stop() {
	for _, reg := range w.Registries {
		reg.Stop()
	}
}

// Run advances the clock through the full window plus a drain margin for
// late snapshots and measurement windows, then stops the registries.
func (w *World) Run() {
	w.Clock.RunUntil(w.drainDeadline())
	w.Stop()
}

// RunBatched is Run. It remains only because bench/campaign.go calls it;
// it goes with that call in the benchmark PR of ROADMAP item 1(d).
func (w *World) RunBatched(int) { w.Run() }

// RunLookahead is Run: the clock has one drain, which fires one instant
// at a time. It remains only because bench/campaign.go calls it; it goes
// with that call in the benchmark PR of ROADMAP item 1(d).
func (w *World) RunLookahead(int, int) { w.Run() }

// drainDeadline is the window end plus slack for late snapshots and the
// last measurement windows.
func (w *World) drainDeadline() time.Time {
	return w.windowEnd.Add(5 * 24 * time.Hour)
}

// resolves implements the CA's DV check against live zones.
func (w *World) resolves(name string) bool {
	tld := dnsname.TLD(dnsname.Canonical(name))
	reg := w.Registries[tld]
	if reg == nil {
		return false
	}
	_, ok := reg.Delegation(name)
	return ok
}

// rdapBackend adapts a registry to the rdap.Backend interface.
type rdapBackend struct{ reg *registry.Registry }

func (b rdapBackend) RDAPDomain(name string) (*rdap.Record, error) {
	return b.record(b.reg.RDAPLookup(name))
}

func (b rdapBackend) record(r *registry.Registration, err error) (*rdap.Record, error) {
	if err != nil {
		if err == registry.RDAPErrNotSynced {
			return nil, rdap.ErrNotSynced
		}
		return nil, rdap.ErrNotFound
	}
	return &rdap.Record{
		Domain: r.Domain, Registrar: r.Registrar, Registered: r.Created,
		Status: []string{"active"},
	}, nil
}

// snapshotDelay models CZDS publication lag: usually a couple of hours,
// occasionally days (the reason for the paper's ±3-day slack).
func snapshotDelay(rng *rand.Rand) time.Duration {
	if rng.Float64() < 0.05 {
		return time.Duration(24+rng.Intn(48)) * time.Hour
	}
	return time.Duration(1+rng.Intn(4)) * time.Hour
}
