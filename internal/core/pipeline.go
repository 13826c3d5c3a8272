// Package core implements the DarkDNS methodology (paper §3): a five-step
// pipeline that turns public observables — certificate transparency
// events, CZDS zone snapshots, RDAP lookups and reactive DNS measurements
// — into a feed of newly registered domains and a lower-bound inventory
// of transient domains.
//
// Step 1: consume Certstream precertificate events, extract registered
// domains via the Public Suffix List, and keep those absent from the
// latest CZDS snapshots.
// Step 2: collect RDAP registration data (one attempt, never retried).
// Step 3: reactively probe each candidate (A/AAAA/NS every 10 minutes for
// 48 hours; NS directly at the TLD's authoritative servers).
// Step 4: validate the CT detection time against the RDAP-reported
// registration time (within 24 hours).
// Step 5: after the window closes, label as transient every candidate
// that never appeared in any zone snapshot (±3 days slack).
//
// Each certstream event is handled as it is delivered (HandleEvent), and
// step 2 is one clock timer per candidate (DESIGN.md §3, §6). The
// candidate store is striped over independent locks and zone-presence
// reads are lock-free (czds), so concurrent HandleEvent callers are safe.
// Every per-candidate random decision (RDAP queueing delay, failure
// injection, watch sampling) is drawn from a generator derived from the
// pipeline seed and the domain name alone, so outcomes do not depend on
// event arrival order or on which caller handles an event.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"darkdns/internal/certstream"
	"darkdns/internal/czds"
	"darkdns/internal/dnsname"
	"darkdns/internal/measure"
	"darkdns/internal/psl"
	"darkdns/internal/rdap"
	"darkdns/internal/simclock"
	"darkdns/internal/stream"
	"darkdns/internal/workpool"
)

// Config parameterizes the pipeline.
type Config struct {
	WindowStart time.Time
	WindowEnd   time.Time
	// ZoneSlack widens the transient test window to absorb late zone
	// publication (paper: ±3 days).
	ZoneSlack time.Duration
	// ValidationWindow is the maximum |CT seen − RDAP registered| for a
	// candidate to count as a validated NRD (paper: 24 h).
	ValidationWindow time.Duration
	// RDAPDelay samples the queueing delay between detection and the
	// RDAP query (Azure worker dispatch in the paper). The generator
	// passed in is derived from the pipeline seed and the candidate's
	// domain, so the sampled delay is reproducible independent of event
	// order.
	RDAPDelay func(rng *rand.Rand) time.Duration
	// RDAPFailureRate injects collection errors (rate limiting, worker
	// failures — the paper's ≈3 %).
	RDAPFailureRate float64
	// WatchSampleRate is the fraction of candidates handed to the
	// measurement fleet. 1.0 is paper-accurate; large-scale simulation
	// runs may sample (every analysis over fleet data is a proportion).
	WatchSampleRate float64
	// FeedTopic is the stream topic name for the public NRD feed.
	FeedTopic string
	// Engines is embedded only because bench/campaign.go sets its
	// IngestWorkers and RDAPWorkers here; the pipeline reads no field of
	// it. It goes with those assignments in the benchmark PR of ROADMAP
	// item 1(d).
	workpool.Engines
}

// DefaultConfig returns the paper's parameters over [start, end).
func DefaultConfig(start, end time.Time) Config {
	return Config{
		WindowStart:      start,
		WindowEnd:        end,
		ZoneSlack:        3 * 24 * time.Hour,
		ValidationWindow: 24 * time.Hour,
		RDAPDelay: func(rng *rand.Rand) time.Duration {
			return time.Duration(rng.Int63n(int64(5 * time.Minute)))
		},
		RDAPFailureRate: 0.03,
		WatchSampleRate: 1.0,
		FeedTopic:       "nrd-feed",
	}
}

// RDAPOutcome classifies step 2's result for a candidate.
type RDAPOutcome uint8

// RDAP outcomes.
const (
	RDAPPending RDAPOutcome = iota
	RDAPOK
	RDAPNotFound  // domain gone (too late) or never existed
	RDAPNotSynced // we were too early
	RDAPError     // rate limiting / collection failure
)

// String names the outcome.
func (o RDAPOutcome) String() string {
	switch o {
	case RDAPPending:
		return "pending"
	case RDAPOK:
		return "ok"
	case RDAPNotFound:
		return "not-found"
	case RDAPNotSynced:
		return "not-synced"
	case RDAPError:
		return "error"
	}
	return "unknown"
}

// Candidate is a CT-detected newly registered domain working through the
// pipeline.
type Candidate struct {
	Domain string
	TLD    string
	SeenAt time.Time // certstream observation time (the paper's proxy)
	CTLog  string
	Issuer string

	RDAPAt      time.Time
	RDAPOutcome RDAPOutcome
	Registrar   string
	Registered  time.Time

	Validated bool // |SeenAt − Registered| ≤ ValidationWindow
	Watched   bool // handed to the measurement fleet
}

// DetectionDelay is SeenAt − Registered for validated candidates.
func (c *Candidate) DetectionDelay() time.Duration { return c.SeenAt.Sub(c.Registered) }

// candShards is the stripe count of the candidate store. Power of two
// for cheap masking; 64 stripes keep admissions, RDAP completions and
// report reads from serializing on one lock at ingest rates.
const candShards = 64

// candShard is one stripe of the candidate store.
type candShard struct {
	mu         sync.Mutex
	candidates map[string]*Candidate
}

// Pipeline is the DarkDNS measurement pipeline.
type Pipeline struct {
	cfg   Config
	clk   simclock.Clock
	psl   *psl.List
	zones *czds.Service
	rdapQ rdap.Querier
	// rdapAt is rdapQ's time-explicit extension, resolved once; nil for a
	// querier that reads the clock itself (a wire client).
	rdapAt rdap.QuerierAt
	fleet  *measure.Fleet
	seed   int64

	feed *stream.Topic

	shards [candShards]candShard
	count  atomic.Int64

	unsub func()
}

// New assembles a pipeline. bus may be nil when no feed publication is
// wanted; fleet may be nil to skip step 3.
func New(cfg Config, clk simclock.Clock, pslList *psl.List, zones *czds.Service,
	rdapQ rdap.Querier, fleet *measure.Fleet, bus *stream.Bus, seed int64) *Pipeline {
	if cfg.ValidationWindow <= 0 {
		cfg.ValidationWindow = 24 * time.Hour
	}
	if cfg.ZoneSlack <= 0 {
		cfg.ZoneSlack = 3 * 24 * time.Hour
	}
	if cfg.WatchSampleRate <= 0 {
		cfg.WatchSampleRate = 1.0
	}
	if cfg.FeedTopic == "" {
		cfg.FeedTopic = "nrd-feed"
	}
	p := &Pipeline{
		cfg: cfg, clk: clk, psl: pslList, zones: zones, rdapQ: rdapQ,
		fleet: fleet, seed: seed,
	}
	p.rdapAt, _ = rdapQ.(rdap.QuerierAt)
	for i := range p.shards {
		p.shards[i].candidates = make(map[string]*Candidate)
	}
	if bus != nil {
		p.feed = bus.Topic(cfg.FeedTopic)
	}
	return p
}

// shard maps a domain to its store stripe.
func (p *Pipeline) shard(domain string) *candShard {
	return &p.shards[dnsname.Hash64(domain)&(candShards-1)]
}

// splitmix64 is a tiny rand.Source64: each call advances a Weyl sequence
// and whitens it through the shared dnsname.Mix64 finalizer. It replaces
// the stock 4.9 KB shuffled-linear source for per-candidate decision
// draws, where a fresh generator is created per admission.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	return dnsname.Mix64(uint64(*s))
}

func (s *splitmix64) Uint64() uint64  { return s.next() }
func (s *splitmix64) Int63() int64    { return int64(s.next() >> 1) }
func (s *splitmix64) Seed(seed int64) { *s = splitmix64(seed) }

// domainRand derives the candidate's decision generator from the pipeline
// seed and the domain name. Because the derivation ignores event arrival
// order, concurrent callers draw identical decisions for a given
// (seed, domain) pair — the property the determinism guarantee rests on.
func (p *Pipeline) domainRand(domain string) *rand.Rand {
	src := splitmix64(dnsname.Hash64(domain) ^ uint64(p.seed))
	return rand.New(&src)
}

// Start subscribes the pipeline to the certstream hub, handling each
// event as it is delivered. Call Stop to detach.
func (p *Pipeline) Start(hub *certstream.Hub) {
	p.unsub = hub.Subscribe(p.HandleEvent)
}

// StartBatched is Start. It remains only because bench/campaign.go calls
// it; it goes with that call in the benchmark PR of ROADMAP item 1(d).
func (p *Pipeline) StartBatched(hub *certstream.Hub) { p.Start(hub) }

// Stop detaches from the hub.
func (p *Pipeline) Stop() {
	if p.unsub != nil {
		p.unsub()
		p.unsub = nil
	}
}

// HandleEvent processes one certstream event (step 1). Exported so tests
// and replay tools can feed events directly; safe for concurrent use.
func (p *Pipeline) HandleEvent(ev certstream.Event) {
	for _, name := range ev.Entry.Names() {
		domain, ok := p.screenName(name)
		if !ok {
			continue
		}
		cand, admitted := p.admit(domain, ev)
		if !admitted {
			continue
		}
		if p.feed != nil {
			p.feed.Publish(ev.Seen, domain, feedJSON(domain, ev))
		}
		p.dispatch(cand)
	}
}

// screenName maps one certificate name to an admissible registered
// domain: PSL extraction, name hygiene, the zone filter, and an
// optimistic duplicate probe (admit re-checks authoritatively). All reads
// — the PSL is immutable, the zone view is a lock-free snapshot — so
// concurrent callers screen without contention.
func (p *Pipeline) screenName(name string) (string, bool) {
	domain, ok := p.psl.RegisteredDomain(name)
	if !ok {
		return "", false
	}
	if dnsname.Check(domain) != nil {
		return "", false
	}
	sh := p.shard(domain)
	sh.mu.Lock()
	_, dup := sh.candidates[domain]
	sh.mu.Unlock()
	if dup {
		return "", false
	}
	if p.zones.InLatest(domain) {
		return "", false // already visible in zone files: not newly registered
	}
	return domain, true
}

// admit inserts domain into the candidate store unless a concurrent or
// earlier event won the race.
func (p *Pipeline) admit(domain string, ev certstream.Event) (*Candidate, bool) {
	cand := &Candidate{
		Domain: domain,
		TLD:    dnsname.TLD(domain),
		SeenAt: ev.Seen,
		CTLog:  ev.Log,
		Issuer: ev.Entry.Issuer,
	}
	sh := p.shard(domain)
	sh.mu.Lock()
	if _, dup := sh.candidates[domain]; dup {
		sh.mu.Unlock()
		return nil, false
	}
	sh.candidates[domain] = cand
	sh.mu.Unlock()
	p.count.Add(1)
	return cand, true
}

// dispatch runs steps 2 and 3 for a freshly admitted candidate: RDAP
// after a queueing delay (one attempt only) and the reactive measurement
// watch, with all random decisions drawn from the candidate's derived
// generator.
func (p *Pipeline) dispatch(cand *Candidate) {
	rng := p.domainRand(cand.Domain)
	delay := time.Duration(0)
	if p.cfg.RDAPDelay != nil {
		delay = p.cfg.RDAPDelay(rng)
	}
	fail := rng.Float64() < p.cfg.RDAPFailureRate
	// One timer per candidate. With a time-explicit backend it carries the
	// candidate's domain atom, so a lookahead drain may fire RDAP lookups
	// of unrelated domains from different instants together: the lookup
	// reads only this domain's registry slice and writes only this
	// candidate's shard entry. A backend that reads the clock itself gets
	// no tag, which keeps the timer an ordering barrier that fires at
	// committed time.
	var tag simclock.EffectTag
	if p.rdapAt != nil {
		tag = simclock.DomainTag(cand.Domain)
	}
	simclock.AfterTagged(p.clk, delay, tag, func(now time.Time) { p.collectRDAP(cand, fail, now) })

	if p.fleet != nil && rng.Float64() < p.cfg.WatchSampleRate {
		sh := p.shard(cand.Domain)
		sh.mu.Lock()
		cand.Watched = true
		sh.mu.Unlock()
		p.fleet.Watch(cand.Domain)
	}
}

// feedJSON renders the NRD feed message for an admission.
func feedJSON(domain string, ev certstream.Event) []byte {
	return []byte(fmt.Sprintf(`{"domain":%q,"seen":%q,"log":%q}`,
		domain, ev.Seen.UTC().Format(time.RFC3339), ev.Log))
}

// collectRDAP performs step 2: the one lookup (or injected failure) at
// now, the timer's own firing instant — never read from the clock, which
// a tagged timer may fire ahead of — then records the outcome and runs
// the step 4 validation. Safe for concurrent use: outcomes for distinct
// candidates land on their own store stripes.
func (p *Pipeline) collectRDAP(cand *Candidate, injectedFailure bool, now time.Time) {
	var rec *rdap.Record
	err := rdap.ErrRateLimited
	if !injectedFailure {
		if p.rdapAt != nil {
			rec, err = p.rdapAt.DomainAt(context.Background(), cand.Domain, now)
		} else {
			rec, err = p.rdapQ.Domain(context.Background(), cand.Domain)
		}
	}
	sh := p.shard(cand.Domain)
	sh.mu.Lock()
	cand.RDAPAt = now
	sh.mu.Unlock()
	switch {
	case err == nil:
		p.setRDAP(cand, RDAPOK, rec)
	case errors.Is(err, rdap.ErrNotFound):
		p.setRDAP(cand, RDAPNotFound, nil)
	case errors.Is(err, rdap.ErrNotSynced):
		p.setRDAP(cand, RDAPNotSynced, nil)
	default:
		p.setRDAP(cand, RDAPError, nil)
	}
}

// Dispatcher always returns nil: step 2 has no dispatcher. It remains only
// because bench/campaign.go calls it; it goes with that call in the
// benchmark PR of ROADMAP item 1(d).
func (p *Pipeline) Dispatcher() *rdap.Dispatcher { return nil }

func (p *Pipeline) setRDAP(cand *Candidate, outcome RDAPOutcome, rec *rdap.Record) {
	sh := p.shard(cand.Domain)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cand.RDAPOutcome = outcome
	if rec != nil {
		cand.Registrar = rec.Registrar
		cand.Registered = rec.Registered
		delta := cand.SeenAt.Sub(rec.Registered)
		if delta < 0 {
			delta = -delta
		}
		cand.Validated = delta <= p.cfg.ValidationWindow
	}
}

// Candidates returns copies of all candidates, sorted by domain.
func (p *Pipeline) Candidates() []Candidate {
	out := make([]Candidate, 0, p.Len())
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, c := range sh.candidates {
			out = append(out, *c)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// Candidate returns a copy of one candidate.
func (p *Pipeline) Candidate(domain string) (Candidate, bool) {
	domain = dnsname.Canonical(domain)
	sh := p.shard(domain)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c, ok := sh.candidates[domain]
	if !ok {
		return Candidate{}, false
	}
	return *c, true
}

// Len returns the number of candidates admitted.
func (p *Pipeline) Len() int {
	return int(p.count.Load())
}

// TransientReport is the step 5 output.
type TransientReport struct {
	// All candidates never seen in a snapshot within the slack window —
	// the paper's lower bound (68,042).
	LowerBound []Candidate
	// Confirmed is the RDAP-validated subset (the paper's 42,358).
	Confirmed []Candidate
	// RDAPFailed is the subset of LowerBound whose RDAP collection
	// failed (the paper's ≈34 %): too late, too early, or never existed.
	RDAPFailed []Candidate
}

// Transients computes step 5 over the configured window. Candidates in
// TLDs with no collected zone snapshots are skipped: without zone files
// the "never appeared in a snapshot" test is vacuous (this is precisely
// why ccTLD transients need the registry's own zone view, §4.4).
func (p *Pipeline) Transients() TransientReport {
	collected := make(map[string]bool)
	for _, tld := range p.zones.TLDs() {
		collected[tld] = true
	}
	var rep TransientReport
	for _, c := range p.Candidates() {
		if !collected[c.TLD] {
			continue
		}
		from := c.SeenAt.Add(-p.cfg.ZoneSlack)
		to := p.cfg.WindowEnd.Add(p.cfg.ZoneSlack)
		if p.zones.EverSeen(c.Domain, from, to) {
			continue // appeared in a snapshot eventually: not transient
		}
		rep.LowerBound = append(rep.LowerBound, c)
		switch c.RDAPOutcome {
		case RDAPOK:
			if c.Validated {
				rep.Confirmed = append(rep.Confirmed, c)
			}
		default:
			rep.RDAPFailed = append(rep.RDAPFailed, c)
		}
	}
	return rep
}

// Stats summarizes the pipeline's state for operational reporting.
type Stats struct {
	Candidates int
	ByOutcome  map[RDAPOutcome]int
	Validated  int
	Watched    int
}

// Summary computes current pipeline statistics.
func (p *Pipeline) Summary() Stats {
	s := Stats{ByOutcome: make(map[RDAPOutcome]int)}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, c := range sh.candidates {
			s.Candidates++
			s.ByOutcome[c.RDAPOutcome]++
			if c.Validated {
				s.Validated++
			}
			if c.Watched {
				s.Watched++
			}
		}
		sh.mu.Unlock()
	}
	return s
}

// ZoneNRDCoverage computes the Table 1 comparison: of the domains that
// appeared as additions in day-over-day zone diffs, which fraction did the
// pipeline detect first via CT? The czds first-seen index supplies the
// zone side.
func (p *Pipeline) ZoneNRDCoverage(tld string) (detectedInZone, zoneNRDs int64) {
	zoneNRDs = p.zones.Stats(tld).Added
	for _, c := range p.Candidates() {
		if c.TLD != tld {
			continue
		}
		if first, ok := p.zones.FirstSeen(c.Domain); ok && first.After(c.SeenAt) {
			detectedInZone++
		}
	}
	return detectedInZone, zoneNRDs
}
