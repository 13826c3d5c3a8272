// Commit phase of the two-phase world builder (compile lives in
// layout.go): install compiled layouts into the live world in one serial
// pass in canonical (plan, chunk) order, so the resulting world is
// byte-identical at any compile width (DESIGN.md §9).
package worldsim

import (
	"fmt"
	"math/rand"
	"time"

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

// commit installs compiled layouts in one serial pass in canonical
// (plan, chunk) order: ground-truth records into the Domains map (a
// duplicate name's last writer is the latest layout), ghosts onto the
// ghost ledger, buffered seedings into the NOD feed (its map sized once
// for every layout's), blocklists and CZDS's zone history, DV tokens into
// the CAs, and each layout's lifecycle slab onto the clock as one run,
// whose index order gives every event its sequence number. Layouts own
// distinct names (structurally, while plans own distinct TLDs); dupNames
// counts every occurrence of a name after its first, ghosts included, as
// the safety net.
func (w *World) commit(layouts []*Layout) {
	total, ghosts, nods := 0, 0, 0
	for _, l := range layouts {
		total += len(l.domains)
		ghosts += len(l.ghosts)
		nods += len(l.nod)
	}
	w.Domains = &DomainStore{m: make(map[string]*Domain, total)}
	w.Ghosts = make([]*Domain, 0, ghosts)
	w.NOD.Grow(nods)
	// One array holds every layout's run, so handing one to the clock
	// as a Run boxes no slice header.
	runs := make([]lifecycles, len(layouts))
	for i, l := range layouts {
		runs[i] = w.commitLayout(l)
		w.Clock.ScheduleRun(&runs[i])
	}
	// Ghost names join a uniqueness set only: they have no registration,
	// so Get keeps returning nil for them.
	ghostNames := make(map[string]struct{}, len(w.Ghosts))
	for _, g := range w.Ghosts {
		_, dupD := w.Domains.m[g.Name]
		_, dupG := ghostNames[g.Name]
		if dupD || dupG {
			w.dupNames++
		}
		ghostNames[g.Name] = struct{}{}
	}
}

// commitLayout installs one layout and returns its lifecycle slab:
// domain lifecycles, then ghost issuances.
func (w *World) commitLayout(l *Layout) lifecycles {
	recs := make(lifecycles, len(l.domains)+len(l.ghosts))
	domains := w.Domains.m
	for j := range l.domains {
		d := l.domains[j].d
		n := len(domains)
		if domains[d.Name] = d; len(domains) == n {
			w.dupNames++ // the name was present: the later layout's record wins
		}
		recs[j] = lifecycle{w: w, l: l, at: d.Created.UnixNano(), idx: int32(j)}
	}
	for j := range l.ghosts {
		g := &l.ghosts[j]
		w.Ghosts = append(w.Ghosts, g.d)
		w.CAs[g.caIdx].SeedToken(g.d.Name, g.tokenAt)
		if g.inDZDB {
			w.CZDS.Seed(g.d.Name, g.tokenAt)
		}
		k := len(l.domains) + j
		recs[k] = lifecycle{w: w, l: l, at: g.d.Created.UnixNano(), idx: int32(k)}
	}
	for _, s := range l.nod {
		w.NOD.Seed(s.domain, nanoTime(s.at))
	}
	for _, f := range l.flags {
		w.Blocklists.SeedFlag(f.List, f.Domain, f.At)
	}
	for _, s := range l.dzdb {
		w.CZDS.Seed(s.domain, nanoTime(s.at))
	}
	return recs
}

// lifecycles is one layout's lifecycle slab as the clock drains it
// (simclock.Run): entry i fires at its name's creation instant, a
// registration as itself and a ghost as its issuance, and its rank is
// its index in the slab as committed. The clock sorts the slab in place
// before the first entry fires, so records move only while none of them
// is scheduled by a pointer. Each record carries its instant, so the
// sort and the drain read it from the slab they walk.
type lifecycles []lifecycle

func (ls *lifecycles) Len() int { return len(*ls) }

// At converts the record's instant back to the time.Time it was taken
// from: in UTC with no monotonic reading, as Config.withDefaults leaves
// every instant of a world, so it equals the name's Domain.Created.
func (ls *lifecycles) At(i int) time.Time { return nanoTime((*ls)[i].at) }

func (ls *lifecycles) Rank(i int) int { return int((*ls)[i].idx) }

func (ls *lifecycles) Event(i int) simclock.Firer {
	lc := &(*ls)[i]
	if lc.isGhost() {
		return (*ghostIssuance)(lc)
	}
	return lc
}

func (ls *lifecycles) Swap(i, j int) { (*ls)[i], (*ls)[j] = (*ls)[j], (*ls)[i] }

// lifecycle is the clock-event record of one compiled registration or
// ghost, 32 bytes. Its Fire registers the name; the same record,
// converted to certAttempt, certIssue, nsChange, deletion, ghostIssuance
// or ghostCert, is the action of the name's other events, so a world's
// timeline is one slab per layout with no closure or event object per
// name, and a certificate request has no object of its own either.
type lifecycle struct {
	w *World
	l *Layout
	// at is the name's creation instant in Unix nanoseconds, the instant
	// the record first fires at.
	at int64
	// idx is the record's index in its layout's slab as committed, which
	// breaks ties between records of one instant (lifecycles): below
	// len(l.domains) it is registration l.domains[idx], and from there on
	// ghost l.ghosts[idx-len(l.domains)].
	idx int32
	// certRetries counts the registration's certificate attempts that
	// failed validation and were retried, at most maxCertAttempts.
	certRetries int32
}

// isGhost reports whether the record is a ghost's rather than a
// registration's.
func (lc *lifecycle) isGhost() bool { return int(lc.idx) >= len(lc.l.domains) }

// reg returns the registration the record fires for.
func (lc *lifecycle) reg() *regLayout { return &lc.l.domains[lc.idx] }

// ghost returns the ghost the record fires for.
func (lc *lifecycle) ghost() *ghostLayout { return &lc.l.ghosts[int(lc.idx)-len(lc.l.domains)] }

// registry returns the registry of the registration's TLD, its layout's.
// It is looked up when an event fires rather than held, so the record
// stays four words with its instant, slot and retry count.
func (lc *lifecycle) registry() *registry.Registry { return lc.w.Registries[lc.l.tld] }

// Fire registers the name at its creation instant, then kicks off the
// (pre-drawn) certificate chain, NS change and deletion, every instant
// derived from the registration's own.
func (lc *lifecycle) Fire() {
	w, r := lc.w, lc.reg()
	d := r.d
	now := w.Clock.Now()
	if _, err := lc.registry().RegisterAt(d.Name, d.Registrar, r.nsSet.Names(), r.webAddr(), now); err != nil {
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
// cadence. The attempt draws the CA's validation delay and schedules the
// same record, as certIssue, to fire once it has passed: the CA keeps no
// request of its own.
type certAttempt lifecycle

func (e *certAttempt) Fire() {
	clk := e.w.Clock
	clk.Schedule(clk.Now().Add(e.w.CAs[(*lifecycle)(e).reg().caIdx].ValidationDelay()), (*certIssue)(e))
}

// certIssue is a certificate attempt whose validation delay has passed:
// the CA validates and logs at this instant. A failed validation retries,
// at most maxCertAttempts times, after the backoff the failed attempt's
// number derives from the registration's compiled retry seed, so the
// chain stays a pure function of the world seed; the retry's instant
// counts from the failure, and it fires the same record again.
type certIssue lifecycle

func (e *certIssue) Fire() {
	r := (*lifecycle)(e).reg()
	name := r.d.Name
	if _, err := e.w.CAs[r.caIdx].Issue(name, name, nil); err == nil || int(e.certRetries) >= maxCertAttempts {
		return
	}
	clk := e.w.Clock
	clk.Schedule(clk.Now().Add(retryDelay(r.retrySeed, int(e.certRetries))), (*certAttempt)(e))
	e.certRetries++
}

// nsChange is a registration's switch to its pre-drawn alternate NS set.
type nsChange lifecycle

func (e *nsChange) Fire() {
	lc := (*lifecycle)(e)
	r := lc.reg()
	_ = lc.registry().UpdateNS(r.d.Name, r.altSet.Names())
}

// deletion is a registration's takedown at the end of its lifetime.
type deletion lifecycle

func (e *deletion) Fire() {
	lc := (*lifecycle)(e)
	_ = lc.registry().Delete(lc.reg().d.Name)
}

// ghostIssuance is a ghost's certificate request, issued on a stale DV
// token: it draws the CA's validation delay and schedules the same
// record, as ghostCert, to fire once the delay has passed.
type ghostIssuance lifecycle

func (e *ghostIssuance) Fire() {
	clk := e.w.Clock
	clk.Schedule(clk.Now().Add(e.w.CAs[(*lifecycle)(e).ghost().caIdx].ValidationDelay()), (*ghostCert)(e))
}

// ghostCert is a ghost's certificate after its validation delay: no live
// validation, only the token. A ghost whose token has lapsed gets no
// certificate, and nothing retries it, so the error is not read.
type ghostCert lifecycle

func (e *ghostCert) Fire() {
	g := (*lifecycle)(e).ghost()
	_, _ = e.w.CAs[g.caIdx].Issue(g.d.Name, g.d.Name, nil)
}
