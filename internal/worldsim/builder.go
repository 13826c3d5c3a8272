// Commit phase of the two-phase world builder (compile lives in
// layout.go): install compiled layouts into the live world. The
// commutative bulk of a layout — record installs on the sharded
// DomainStore, NOD/blocklist/DZDB seedings, DV tokens — commits on a
// worker pool at Config.CommitWorkers width; the order-sensitive
// remainder (the ghost ledger, the one ScheduleBatch of the world's
// timeline) stays serial in canonical (plan, chunk) order, so the
// resulting world is byte-identical at any compile or commit width
// (DESIGN.md §9).
package worldsim

import (
	"fmt"
	"math/rand"
	"slices"

	"darkdns/internal/ct"
	"darkdns/internal/registry"
	"darkdns/internal/simclock"
	"darkdns/internal/workpool"
)

// compileUnit is one entry of the compile work list: a chunk of a gTLD
// plan (plan ≥ 0) or of the ccTLD plan (plan == -1).
type compileUnit struct {
	plan          int
	chunk, chunks int
}

// compileLayouts compiles every gTLD plan plus the ccTLD plan into
// layouts, fanning the pure chunk compilers out on a worker pool of
// width cfg.BuildWorkers (≤1 = serial on the caller's goroutine). The
// unit list and each layout are pure functions of (cfg, plan, chunk) —
// every chunk's RNG stream derives from subseed(Seed, "plan/<tld>/<i>")
// — so the result is identical at any width. The canonical world order
// is the unit-list order: plans in Config.Plans order, chunks ascending,
// ccTLD last.
func compileLayouts(env *buildEnv) []*Layout {
	compileCount.Add(1)
	cfg := env.cfg
	units := make([]compileUnit, 0, len(cfg.Plans)+1)
	for i, p := range cfg.Plans {
		k := planChunks(cfg, p)
		for c := 0; c < k; c++ {
			units = append(units, compileUnit{i, c, k})
		}
	}
	ck := ccChunks(cfg, *cfg.CCTLD)
	for c := 0; c < ck; c++ {
		units = append(units, compileUnit{-1, c, ck})
	}
	layouts := make([]*Layout, len(units))
	workpool.Run(len(units), cfg.BuildWorkers, func(i int) {
		u := units[i]
		if u.plan >= 0 {
			plan := cfg.Plans[u.plan]
			rng := rand.New(rand.NewSource(subseed(cfg.Seed, fmt.Sprintf("plan/%s/%d", plan.TLD, u.chunk))))
			layouts[i] = compilePlanChunk(env, plan, u.chunk, u.chunks, rng)
		} else {
			rng := rand.New(rand.NewSource(subseed(cfg.Seed, fmt.Sprintf("ccplan/%s/%d", cfg.CCTLD.TLD, u.chunk))))
			layouts[i] = compileCCTLDChunk(env, *cfg.CCTLD, u.chunk, u.chunks, rng)
		}
	})
	return layouts
}

// commit installs compiled layouts through the parallel commit engine.
// Phase one fans per-layout installs out on a worker pool at
// Config.CommitWorkers width (≤1 = serial on the caller): ground-truth
// records into the sharded Domains store, buffered seedings into the NOD
// feed, blocklists and CZDS's zone history, DV tokens into the CAs, and
// each layout's lifecycle records into its own stretch of one world
// timeline. Every one of those effects is commutative across layouts —
// layouts own distinct names (structurally, while plans own distinct
// TLDs; the dupNames counter is the safety net), the substrates take
// earliest-wins / min-max / keyed updates under their own locks, and the
// stretches are disjoint — so phase one is order-free. Phase two is the
// serial remainder: the ghost ledger append (slice order) and one
// ScheduleBatch of the whole timeline, whose slice order is the
// canonical (plan, chunk) order and so gives every event the sequence
// number a per-layout batch in that order gave it. Determinism comes
// from the fixed phase-two order, speed from striping phase one.
func (w *World) commit(layouts []*Layout) {
	total, ghosts := 0, 0
	offsets := make([]int, len(layouts)+1)
	for i, l := range layouts {
		total += len(l.domains)
		ghosts += len(l.ghosts)
		offsets[i+1] = offsets[i] + len(l.domains) + len(l.ghosts)
	}
	w.Domains = newDomainStore(total)
	timeline := make([]simclock.Timed, offsets[len(layouts)])
	workpool.Run(len(layouts), w.Cfg.CommitWorkers, func(i int) {
		w.commitLayout(layouts[i], i, timeline[offsets[i]:offsets[i+1]])
	})
	w.Ghosts = slices.Grow(w.Ghosts, ghosts)
	for _, l := range layouts {
		for j := range l.ghosts {
			w.Ghosts = append(w.Ghosts, l.ghosts[j].d)
		}
	}
	w.Clock.ScheduleBatch(timeline)
}

// commitLayout installs one layout's commutative effects and writes its
// timeline into the layout's stretch of the world's: domain lifecycles,
// then ghost issuances, each entry firing an element of one lifecycle
// slab allocated here. rank is the layout's canonical index, which
// decides duplicate-name winners the way serial order used to. Safe for
// concurrent invocation with distinct layouts and stretches: the Domains
// store is sharded, the substrates lock internally, and the registries
// and CAs the records reach are only read here.
func (w *World) commitLayout(l *Layout, rank int, timeline []simclock.Timed) {
	recs := make([]lifecycle, len(l.domains)+len(l.ghosts))
	for j := range l.domains {
		r := &l.domains[j]
		if w.Domains.install(r.d, rank) {
			w.dupNames.Add(1)
		}
		recs[j] = lifecycle{w: w, r: r}
		timeline[j] = simclock.Timed{At: r.d.Created, Do: &recs[j]}
	}
	for j := range l.ghosts {
		g := &l.ghosts[j]
		// Ghost names join the store's uniqueness set only — they have no
		// registration, so Get keeps returning nil for them.
		if w.Domains.installGhost(g.d.Name) {
			w.dupNames.Add(1)
		}
		w.CAs[g.caIdx].SeedToken(g.d.Name, g.tokenAt)
		if g.inDZDB {
			w.CZDS.Seed(g.d.Name, g.tokenAt)
		}
		k := len(l.domains) + j
		recs[k] = lifecycle{w: w, g: g}
		timeline[k] = simclock.Timed{At: g.d.Created, Do: (*ghostIssuance)(&recs[k])}
	}
	for _, s := range l.nod {
		w.NOD.Seed(s.domain, s.at)
	}
	for _, f := range l.flags {
		w.Blocklists.SeedFlag(f.List, f.Domain, f.At)
	}
	for _, s := range l.dzdb {
		w.CZDS.Seed(s.domain, s.at)
	}
}

// lifecycle is the clock-event record of one compiled registration (r
// set) or ghost (g set). Its Fire registers the name; the same record,
// converted to certAttempt, nsChange, deletion or ghostIssuance, is the
// action of the name's other events, so a world's timeline is one slab
// per layout with no closure or event object per name.
type lifecycle struct {
	w *World
	r *regLayout
	g *ghostLayout
	// certRetries counts the registration's certificate attempts that
	// failed validation and were retried.
	certRetries int
}

// registry returns the registry of the registration's TLD. It is looked
// up when an event fires rather than held, so the record stays four
// words with its retry count.
func (lc *lifecycle) registry() *registry.Registry { return lc.w.Registries[lc.r.d.TLD] }

// Fire registers the name at its creation instant, then kicks off the
// (pre-drawn) certificate chain, NS change and deletion, every instant
// derived from the registration's own.
func (lc *lifecycle) Fire() {
	w, r := lc.w, lc.r
	d := r.d
	now := w.Clock.Now()
	if _, err := lc.registry().RegisterAt(d.Name, d.Registrar, r.ns, r.web, now); err != nil {
		return // name collision with an active registration (duplicate-TLD plans only)
	}
	if d.CertAsked {
		w.Clock.Schedule(now.Add(r.certDelay), (*certAttempt)(lc))
	}
	if r.nsChange && (d.Lifetime == 0 || r.nsChangeAt < d.Lifetime) {
		w.Clock.Schedule(now.Add(r.nsChangeAt), (*nsChange)(lc))
	}
	if d.Lifetime > 0 {
		w.Clock.Schedule(now.Add(d.Lifetime), (*deletion)(lc))
	}
}

// certAttempt is a registration's certificate request. A request that
// fails validation is retried while the domain has not yet entered its
// TLD zone — modelling ACME clients retrying validation until the
// registry's next zone rebuild publishes the delegation. This retry
// chain is what couples Figure 1's detection delay to zone-update
// cadence. Each retry fires the same record again, after a backoff
// derived from the registration's compiled retry seed, so the chain
// stays a pure function of the world seed.
type certAttempt lifecycle

func (e *certAttempt) Fire() {
	name := e.r.d.Name
	e.w.CAs[e.r.caIdx].Issue(name, name, nil, e)
}

// Issued is the CA's answer to the attempt: a failed validation retries,
// at most maxCertAttempts times, after the backoff the failed attempt's
// number derives; the retry's instant counts from the failure.
func (e *certAttempt) Issued(_ ct.Entry, err error) {
	if err == nil || e.certRetries >= maxCertAttempts {
		return
	}
	clk := e.w.Clock
	clk.Schedule(clk.Now().Add(retryDelay(e.r.retrySeed, e.certRetries)), e)
	e.certRetries++
}

// nsChange is a registration's switch to its pre-drawn alternate NS set.
type nsChange lifecycle

func (e *nsChange) Fire() { _ = (*lifecycle)(e).registry().UpdateNS(e.r.d.Name, e.r.altNS) }

// deletion is a registration's takedown at the end of its lifetime.
type deletion lifecycle

func (e *deletion) Fire() { _ = (*lifecycle)(e).registry().Delete(e.r.d.Name) }

// ghostIssuance is a ghost's certificate, issued on a stale DV token:
// no live validation.
type ghostIssuance lifecycle

func (e *ghostIssuance) Fire() {
	name := e.g.d.Name
	e.w.CAs[e.g.caIdx].Issue(name, name, nil, nil)
}
