// Commit phase of the two-phase world builder (compile lives in
// layout.go): install compiled layouts into the live world. The
// commutative bulk of a layout — record installs on the sharded
// DomainStore, NOD/blocklist/DZDB seedings, DV tokens — commits on a
// worker pool at Config.CommitWorkers width; the order-sensitive
// remainder (the ghost ledger, the clock-timeline ScheduleBatch calls)
// stays serial in canonical (plan, chunk) order, so the resulting world
// is byte-identical at any compile or commit width (DESIGN.md §9).
package worldsim

import (
	"fmt"
	"math/rand"
	"time"

	"darkdns/internal/ca"
	"darkdns/internal/ct"
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
// each layout's timeline into a private slice. Every one of those effects is
// commutative across layouts — layouts own distinct names (structurally,
// while plans own distinct TLDs; the dupNames counter is the safety
// net), and the substrates take earliest-wins / min-max / keyed updates
// under their own locks — so phase one is order-free. Phase two is the
// serial remainder: the ghost ledger append (slice order) and the
// ScheduleBatch calls (event sequence numbers), both
// order-sensitive, run in canonical (plan, chunk) order. One lock
// acquisition per layout on the clock either way; determinism comes from the fixed phase-two
// order, speed from striping phase one.
func (w *World) commit(layouts []*Layout) {
	total := 0
	for _, l := range layouts {
		total += len(l.domains)
	}
	w.Domains = newDomainStore(total)
	timelines := make([][]simclock.Timed, len(layouts))
	workpool.Run(len(layouts), w.Cfg.CommitWorkers, func(i int) {
		timelines[i] = w.commitLayout(layouts[i], i)
	})
	for i, l := range layouts {
		for _, g := range l.ghosts {
			w.Ghosts = append(w.Ghosts, g.d)
		}
		w.Clock.ScheduleBatch(timelines[i])
	}
}

// commitLayout installs one layout's commutative effects and returns its
// compiled timeline for the serial schedule pass: domain lifecycles,
// then ghost issuance. rank is the layout's canonical index, which
// decides duplicate-name winners the way serial order used to. Safe for
// concurrent invocation with distinct layouts:
// the Domains store is sharded, the substrates lock internally, and the
// registries/CAs the timeline closures capture are only read here.
func (w *World) commitLayout(l *Layout, rank int) []simclock.Timed {
	timeline := make([]simclock.Timed, 0, len(l.domains)+len(l.ghosts))
	for _, r := range l.domains {
		if w.Domains.install(r.d, rank) {
			w.dupNames.Add(1)
		}
		timeline = append(timeline, w.registrationEvent(r))
	}
	for _, g := range l.ghosts {
		// Ghost names join the store's uniqueness set only — they have no
		// registration, so Get keeps returning nil for them.
		if w.Domains.installGhost(g.d.Name) {
			w.dupNames.Add(1)
		}
		issuer := w.CAs[g.caIdx]
		issuer.SeedToken(g.d.Name, g.tokenAt)
		if g.inDZDB {
			w.CZDS.Seed(g.d.Name, g.tokenAt)
		}
		name := g.d.Name
		timeline = append(timeline, simclock.Timed{At: g.d.Created, Fn: func() {
			issuer.Issue(name, name, nil, nil) // token reuse: no live validation
		}})
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
	return timeline
}

// registrationEvent wires one compiled registration's lifecycle into a
// clock event: register at creation, then kick off the (pre-drawn)
// certificate chain, NS change and deletion, every instant derived from
// the registration's own.
func (w *World) registrationEvent(r *regLayout) simclock.Timed {
	d := r.d
	reg := w.Registries[d.TLD]
	return simclock.Timed{
		At: d.Created,
		Fn: func() {
			now := w.Clock.Now()
			if _, err := reg.RegisterAt(d.Name, d.Registrar, r.ns, r.web, now); err != nil {
				return // name collision with an active registration (duplicate-TLD plans only)
			}
			if d.CertAsked {
				w.requestCertAt(w.CAs[r.caIdx], d.Name, now.Add(r.certDelay), r.retrySeed, 0)
			}
			if r.nsChange && (d.Lifetime == 0 || r.nsChangeAt < d.Lifetime) {
				w.Clock.At(now.Add(r.nsChangeAt), func() { _ = reg.UpdateNS(d.Name, r.altNS) })
			}
			if d.Lifetime > 0 {
				w.Clock.At(now.Add(d.Lifetime), func() { _ = reg.Delete(d.Name) })
			}
		},
	}
}

// requestCertAt retries issuance while the domain has not yet entered
// its TLD zone — modelling ACME clients retrying validation until the
// registry's next zone rebuild publishes the delegation. This retry
// chain is what couples Figure 1's detection delay to zone-update
// cadence. The backoffs derive from the registration's compiled retry
// seed, so the chain stays a pure function of the world seed. Each
// attempt's instant is passed absolutely; a retry derives it from the
// clock at the failed attempt.
func (w *World) requestCertAt(issuer *ca.CA, name string, at time.Time, retrySeed uint64, attempt int) {
	w.Clock.At(at, func() {
		issuer.Issue(name, name, nil, func(_ ct.Entry, err error) {
			if err == nil || attempt >= maxCertAttempts {
				return
			}
			w.requestCertAt(issuer, name, w.Clock.Now().Add(retryDelay(retrySeed, attempt)), retrySeed, attempt+1)
		})
	})
}
