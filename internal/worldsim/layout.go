// Compile phase of the two-phase world builder.
//
// Each TLD plan (and the ccTLD plan) compiles into Layouts through pure
// functions of (Config, plan, child RNG): domain records, a name set for
// collision checks, and buffered timeline entries — registrations, ghost
// issuances, NOD/blocklist/DZDB seedings — instead of direct Clock.At /
// NOD / Blocklists / CZDS.Seed calls. Because a compile unit's RNG is derived
// from the world seed and the unit's label (subseed) and no shared state
// is touched, layouts can compile concurrently on a worker pool and are
// byte-identical at any width; the commit phase (builder.go) installs
// them serially in canonical plan order.
//
// Large plans split into up to maxPlanChunks equal chunks so a single
// dominant TLD (com carries half the paper's volume) cannot serialize
// the fan-out. Name uniqueness stays structural: names embed their TLD
// (plans own distinct TLDs), and within a multi-chunk plan each chunk
// stamps its own discriminator character into the first name position,
// partitioning the plan's name space with no collision checks across
// chunks.
package worldsim

import (
	"math/rand"
	"net/netip"
	"strings"
	"time"

	"darkdns/internal/blocklist"
	"darkdns/internal/hosting"
	"darkdns/internal/noddfeed"
	"darkdns/internal/registrar"
)

// maxCertAttempts bounds a registration's ACME retry chain: the initial
// certificate request plus up to this many zone-propagation retries.
const maxCertAttempts = 8

// compileChunkTarget is the aimed-for registrations-per-chunk of the
// compile fan-out: small enough that a paper-shape bench world spreads a
// dominant plan over every worker, large enough that per-chunk overhead
// (RNG setup, layout bookkeeping) stays negligible.
const compileChunkTarget = 4096

// maxPlanChunks caps a plan's chunk count at the name-discriminator
// capacity: chunk i of a multi-chunk plan owns every name starting with
// nameAlphabet[i].
const maxPlanChunks = len(nameAlphabet)

// chunksFor sizes a plan's compile fan-out from its total registration
// count — a pure function of the plan, so the unit list is identical at
// any worker-pool width.
func chunksFor(total int) int {
	k := (total + compileChunkTarget - 1) / compileChunkTarget
	if k < 1 {
		k = 1
	}
	if k > maxPlanChunks {
		k = maxPlanChunks
	}
	return k
}

// share splits n as evenly as possible across k chunks, handing the
// remainder to the first n%k of them.
func share(n, k, i int) int {
	s := n / k
	if i < n%k {
		s++
	}
	return s
}

// regLayout is one registration's compiled lifecycle: every stochastic
// choice pre-drawn, ready for the commit phase to install as clock events
// that never touch an RNG. It is 40 bytes: its NS sets are kept as the
// catalog IDs they were drawn as (hosting.NSSetID.Names gives back the
// provider's shared, read-only slice, and ID 0 no set), its web address
// as the four bytes of an IPv4 address (all zero for none: no provider
// hands out 0.0.0.0) and its CA as an index into the world's few.
type regLayout struct {
	d          *Domain
	certDelay  time.Duration
	retrySeed  uint64 // derives per-attempt ACME backoffs (retryDelay)
	nsChangeAt time.Duration
	web        [4]byte
	caIdx      uint8
	nsChange   bool
	// nsSet is the delegation's NS set, altSet the one it switches to when
	// nsChange (0 otherwise).
	nsSet, altSet hosting.NSSetID
}

// webAddr returns the registration's web address, the zero Addr for none.
func (r *regLayout) webAddr() netip.Addr {
	if r.web == [4]byte{} {
		return netip.Addr{}
	}
	return netip.AddrFrom4(r.web)
}

// ghostLayout is one compiled stale-DV-token issuance (§4.2 cause iii).
type ghostLayout struct {
	d       *Domain
	caIdx   int
	tokenAt time.Time // when the dead domain's DV evidence was obtained
	inDZDB  bool      // ≈97 % existed in historical zone data
}

// feedSeed is one buffered substrate observation (NOD or DZDB), its
// instant in Unix nanoseconds.
type feedSeed struct {
	domain string
	at     int64
}

// Layout is one plan's compiled output. It holds no references to world
// substrates; commit translates it into Domains-map inserts, substrate
// seedings and one run of lifecycle records on the clock. The
// registrations and ghosts are values in two slabs, and their records
// (the d fields) point into a third, so a chunk of thousands of names is
// a handful of allocations.
type Layout struct {
	tld     string
	domains []regLayout
	ghosts  []ghostLayout
	nod     []feedSeed
	flags   []blocklist.Flag
	dzdb    []feedSeed
}

// buildEnv is the immutable context every plan compiles against: the
// world config plus the substrate models needed for pure sampling.
type buildEnv struct {
	cfg    *Config
	numCAs int
	lists  []blocklist.List
	nodCfg noddfeed.Config
}

// planCompiler compiles one chunk of one plan with its own seed-derived
// RNG stream.
type planCompiler struct {
	env *buildEnv
	rng *rand.Rand
	out *Layout
	// namePrefix, when non-zero, is this chunk's discriminator: every
	// generated name starts with it, partitioning the plan's name space
	// across chunks.
	namePrefix byte
	// labels is the first label of every name this chunk has generated,
	// packed into a number (domainName), for the collision checks; it is
	// dropped with the compiler.
	labels map[uint64]struct{}
	// arena holds the bytes of every name the chunk generates, back to
	// back, and each name is a substring of it: a chunk's names cost one
	// allocation, not one each. A Builder never changes bytes it has
	// written, so the substrings stay valid if it ever grows.
	arena strings.Builder
	// records is the slab the chunk's ground-truth Domains live in.
	records []Domain
}

// newPlanCompiler starts chunk chunk-of-chunks of a plan that draws regs
// registrations and ghosts ghosts; their sum sizes the collision set, the
// record slab and the name arena (every name under tld is nameLen(tld)
// bytes), and each count its layout slab.
func newPlanCompiler(env *buildEnv, tld string, chunk, chunks, regs, ghosts int, rng *rand.Rand) *planCompiler {
	pc := &planCompiler{
		env: env,
		rng: rng,
		out: &Layout{
			tld:     tld,
			domains: make([]regLayout, 0, regs),
			ghosts:  make([]ghostLayout, 0, ghosts),
		},
		labels:  make(map[uint64]struct{}, regs+ghosts),
		records: make([]Domain, 0, regs+ghosts),
	}
	if chunks > 1 {
		pc.namePrefix = nameAlphabet[chunk]
	}
	pc.arena.Grow((regs + ghosts) * nameLen(tld))
	return pc
}

// record appends d to the chunk's record slab and returns its slot. The
// slab is sized for every name the chunk draws; were it to grow anyway,
// the records already handed out would stay where they are, valid.
func (pc *planCompiler) record(d Domain) *Domain {
	pc.records = append(pc.records, d)
	return &pc.records[len(pc.records)-1]
}

// planCounts derives a gTLD plan's ground-truth population sizes.
func planCounts(cfg *Config, plan TLDPlan) (nNormal, nFast, nGhost int) {
	scale := cfg.Scale * float64(cfg.Weeks*7) / 91.0
	nNormal = int(float64(plan.ZoneNRDs) * scale)
	nFast = int(float64(plan.TransientTotal()) * scale * cfg.FastDeletedMultiplier)
	nGhost = int(float64(plan.TransientTotal()) * scale * cfg.GhostRate)
	return
}

// planChunks sizes one gTLD plan's compile fan-out.
func planChunks(cfg *Config, plan TLDPlan) int {
	nNormal, nFast, nGhost := planCounts(cfg, plan)
	return chunksFor(nNormal + nFast + nGhost)
}

// compilePlanChunk lays out chunk chunk-of-chunks of one gTLD plan (the
// former scheduleTLD, split across equal chunks).
func compilePlanChunk(env *buildEnv, plan TLDPlan, chunk, chunks int, rng *rand.Rand) *Layout {
	nNormal, nFast, nGhost := planCounts(env.cfg, plan)
	pc := newPlanCompiler(env, plan.TLD, chunk, chunks,
		share(nNormal, chunks, chunk)+share(nFast, chunks, chunk), share(nGhost, chunks, chunk), rng)
	weights := monthlyWeights(plan.MonthlyCT)

	// Long-lived + early-removed registrations. Ground truth total is
	// the zone-NRD volume; CT coverage decides who requests certs.
	for i, n := 0, share(nNormal, chunks, chunk); i < n; i++ {
		d := pc.record(Domain{
			Name:    pc.domainName(plan.TLD),
			TLD:     plan.TLD,
			Created: pc.sampleCreation(weights),
		})
		d.CertAsked = pc.rng.Float64() < plan.CertCoverage
		if pc.rng.Float64() < env.cfg.EarlyRemovedRate {
			d.Lifetime = registrar.SampleEarlyRemovedLifetime(pc.rng)
			d.Reason = registrar.SampleRemovalReason(pc.rng)
			d.Malicious = d.Reason.Malicious()
		}
		d.Registrar = registrar.Pick(pc.rng)
		pc.compileDomain(d, false)
	}

	// Fast-deleted (transient-candidate) registrations.
	for i, n := 0, share(nFast, chunks, chunk); i < n; i++ {
		d := pc.record(Domain{
			Name:       pc.domainName(plan.TLD),
			TLD:        plan.TLD,
			Created:    pc.sampleCreation(monthlyWeights(plan.Transients)),
			Lifetime:   registrar.SampleTransientLifetime(pc.rng),
			FastDelete: true,
		})
		d.Reason = registrar.SampleRemovalReason(pc.rng)
		d.Malicious = d.Reason.Malicious()
		d.CertAsked = pc.rng.Float64() < env.cfg.TransientCertRate
		d.Registrar = registrar.PickTransient(pc.rng)
		pc.compileDomain(d, true)
	}

	// Ghost issuances: stale-DV-token certificates for long-gone domains.
	for i, n := 0, share(nGhost, chunks, chunk); i < n; i++ {
		pc.compileGhost(plan.TLD, weights)
	}
	return pc.out
}

// ccCounts derives the ccTLD plan's population sizes.
func ccCounts(cfg *Config, plan CCTLDPlan) (nNormal, nFast int) {
	scale := float64(cfg.Weeks*7) / 91.0
	return int(float64(plan.Normal) * scale), int(float64(plan.FastDeleted) * scale)
}

// ccChunks sizes the ccTLD plan's compile fan-out.
func ccChunks(cfg *Config, plan CCTLDPlan) int {
	nNormal, nFast := ccCounts(cfg, plan)
	return chunksFor(nNormal + nFast)
}

// compileCCTLDChunk lays out one chunk of the ccTLD population (the
// former scheduleCCTLD). Unlike the gTLD plans, counts here follow the
// paper's absolute numbers (714 fast-deleted .nl domains over 3 months)
// scaled only by window length: the ccTLD experiment is about a small
// ground-truth ledger, and scaling it by the global Scale factor would
// leave no sample at reproduction scales.
func compileCCTLDChunk(env *buildEnv, plan CCTLDPlan, chunk, chunks int, rng *rand.Rand) *Layout {
	nNormal, nFast := ccCounts(env.cfg, plan)
	pc := newPlanCompiler(env, plan.TLD, chunk, chunks, share(nNormal, chunks, chunk)+share(nFast, chunks, chunk), 0, rng)
	weights := [3]float64{1. / 3, 1. / 3, 1. / 3}

	for i, n := 0, share(nNormal, chunks, chunk); i < n; i++ {
		d := pc.record(Domain{
			Name:      pc.domainName(plan.TLD),
			TLD:       plan.TLD,
			Created:   pc.sampleCreation(weights),
			Registrar: registrar.Pick(pc.rng),
		})
		d.CertAsked = pc.rng.Float64() < 0.45
		pc.compileDomain(d, false)
	}
	// ccTLD fast-deleted domains: lifetimes uniform in (0, 24 h) — the
	// .nl ledger shows roughly half were still caught by a daily
	// snapshot (334 of 714 were not).
	for i, n := 0, share(nFast, chunks, chunk); i < n; i++ {
		d := pc.record(Domain{
			Name:       pc.domainName(plan.TLD),
			TLD:        plan.TLD,
			Created:    pc.sampleCreation(weights),
			Lifetime:   time.Duration(1 + pc.rng.Int63n(int64(24*time.Hour-2))),
			FastDelete: true,
		})
		d.Reason = registrar.SampleRemovalReason(pc.rng)
		d.Malicious = d.Reason.Malicious()
		d.CertAsked = pc.rng.Float64() < plan.TransientCertRate
		d.Registrar = registrar.PickTransient(pc.rng)
		pc.compileDomain(d, true)
	}
	return pc.out
}

// compileDomain draws one registration's full lifecycle into the layout
// (the former scheduleDomain, minus every side effect). Draws that the
// serial builder deferred to clock callbacks — the post-change NS set,
// the ACME retry backoffs — are pre-drawn here so commit-phase events
// carry no RNG.
func (pc *planCompiler) compileDomain(d *Domain, transient bool) {
	cfg := pc.env.cfg
	rng := pc.rng
	// Mail infrastructure adoption differs between ordinary and
	// fast-deleted registrations (future-work §5 measurements).
	if transient {
		d.HasMX = rng.Float64() < 0.22
		d.HasSPF = rng.Float64() < 0.30
	} else {
		d.HasMX = rng.Float64() < 0.55
		d.HasSPF = rng.Float64() < 0.50
	}
	dnsProv := hosting.PickDNS(rng, transient)
	webProv := hosting.PickWeb(rng, transient)
	d.DNSHost = dnsProv.Name
	d.WebHost = webProv.Name
	shard := rng.Intn(13)
	r := regLayout{
		d:         d,
		nsSet:     dnsProv.NSSetID(shard),
		web:       webProv.WebAddr(rng.Uint64()).As4(),
		caIdx:     uint8(rng.Intn(pc.env.numCAs)),
		certDelay: pc.sampleCertDelay(transient),
		retrySeed: rng.Uint64(),
	}
	r.nsChange = rng.Float64() < cfg.NSChangeRate
	r.nsChangeAt = time.Duration(rng.Int63n(int64(24 * time.Hour)))
	if r.nsChange {
		r.altSet = hosting.PickDNS(rng, transient).NSSetID(rng.Intn(13))
	}
	nodRate := cfg.NODRateNoCert
	if d.CertAsked {
		nodRate = cfg.NODRateWithCert
	}
	if d.Malicious {
		flags := blocklist.SampleAbusive(pc.env.lists, rng, d.Name, d.Created)
		pc.out.flags = append(pc.out.flags, flags...)
		// A slice of *flagged* abusive domains are re-registrations of
		// previously listed names (§4.3: ≈3 % of flagged NRDs were on a
		// blocklist before their registration date).
		if len(flags) > 0 && rng.Float64() < cfg.ReRegistrationRate {
			pc.out.flags = append(pc.out.flags, blocklist.Flag{
				Domain: d.Name, List: "DBL",
				At: d.Created.Add(-time.Duration(30+rng.Intn(170)) * 24 * time.Hour),
			})
			pc.out.dzdb = append(pc.out.dzdb, feedSeed{
				d.Name, d.Created.Add(-time.Duration(200+rng.Intn(160)) * 24 * time.Hour).UnixNano(),
			})
		}
	}
	if at, ok := pc.env.nodCfg.Sample(rng, d.Created, d.Lifetime, nodRate); ok {
		pc.out.nod = append(pc.out.nod, feedSeed{d.Name, at.UnixNano()})
	}
	pc.out.domains = append(pc.out.domains, r)
}

// compileGhost plants a past domain with a still-valid DV token, to be
// issued a certificate during the window with no registration existing.
func (pc *planCompiler) compileGhost(tld string, weights [3]float64) {
	name := pc.domainName(tld)
	d := pc.record(Domain{Name: name, TLD: tld, Ghost: true, Created: pc.sampleCreation(weights)})
	validatedAgo := time.Duration(30+pc.rng.Intn(350)) * 24 * time.Hour
	pc.out.ghosts = append(pc.out.ghosts, ghostLayout{
		d:       d,
		caIdx:   pc.rng.Intn(pc.env.numCAs),
		tokenAt: d.Created.Add(-validatedAgo),
		// ≈97 % of ghost domains existed in historical zone data (§4.2).
		inDZDB: pc.rng.Float64() < 0.97,
	})
}

// monthlyWeights converts a plan's monthly CT counts into per-month
// weights over the simulated window (the window is weeks long; month i
// covers days [30i, 30(i+1))).
func monthlyWeights(m [3]int) [3]float64 {
	tot := float64(m[0] + m[1] + m[2])
	if tot == 0 {
		return [3]float64{1. / 3, 1. / 3, 1. / 3}
	}
	return [3]float64{float64(m[0]) / tot, float64(m[1]) / tot, float64(m[2]) / tot}
}

// sampleCreation picks a creation instant, weighting months per the plan.
func (pc *planCompiler) sampleCreation(weights [3]float64) time.Time {
	x := pc.rng.Float64()
	month := 0
	switch {
	case x < weights[0]:
		month = 0
	case x < weights[0]+weights[1]:
		month = 1
	default:
		month = 2
	}
	windowDays := pc.env.cfg.Weeks * 7
	lo := month * 30
	hi := (month + 1) * 30
	if hi > windowDays {
		hi = windowDays
	}
	if lo >= hi {
		lo, hi = 0, windowDays
	}
	day := lo + pc.rng.Intn(hi-lo)
	return pc.env.cfg.Start.Add(time.Duration(day)*24*time.Hour +
		time.Duration(pc.rng.Int63n(int64(24*time.Hour))))
}

// sampleCertDelay draws the registrant's setup delay between registration
// and the first certificate request. Ordinary registrants take tens of
// minutes to hours (Figure 1: ≈30 % of domains are certified within
// 15 min, ≈50 % within 45 min, with a <2 % multi-day tail from delayed
// setups); abusive fast-deleted registrations move quicker.
func (pc *planCompiler) sampleCertDelay(transient bool) time.Duration {
	if transient {
		return time.Duration(pc.rng.ExpFloat64() * float64(25*time.Minute))
	}
	x := pc.rng.Float64()
	switch {
	case x < 0.02:
		// Long tail: setup finished days later.
		return 24*time.Hour + time.Duration(pc.rng.Int63n(int64(36*time.Hour)))
	case x < 0.22:
		// Automated hosting onboarding requests certificates at once.
		return time.Duration(pc.rng.ExpFloat64() * float64(6*time.Minute))
	default:
		return time.Duration(pc.rng.ExpFloat64() * float64(70*time.Minute))
	}
}

const nameAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

// nameLabelLen is the length of every generated name's first label.
const nameLabelLen = 10

// nameLen is the length of every name domainName generates under tld.
func nameLen(tld string) int { return nameLabelLen + 1 + len(tld) }

// domainName generates a fresh random 10-character registrable name
// under tld, checking collisions against this chunk's own label set.
// Names embed their TLD, plans own distinct TLDs, and within a
// multi-chunk plan the chunk's discriminator occupies the first
// character, so per-chunk uniqueness is world-wide uniqueness — probing
// a shared map (as the serial builder did) was both wasteful and the one
// cross-TLD data dependency. Every name of a chunk has the same TLD, so
// the set holds first labels only, each packed into a number whose
// base-36 digits are its characters' indices in nameAlphabet: 36¹⁰ < 2⁵²,
// so distinct labels get distinct numbers. The set also covers ghost
// names, which the old global probe missed. A candidate is built in a
// stack buffer, and only a fresh one is written to the chunk's arena.
func (pc *planCompiler) domainName(tld string) string {
	var buf [64]byte
	for {
		b, key := buf[:0], uint64(0)
		if pc.namePrefix != 0 {
			b, key = append(b, pc.namePrefix), uint64(strings.IndexByte(nameAlphabet, pc.namePrefix))
		}
		for len(b) < nameLabelLen {
			c := pc.rng.Intn(len(nameAlphabet))
			b, key = append(b, nameAlphabet[c]), key*uint64(len(nameAlphabet))+uint64(c)
		}
		if _, exists := pc.labels[key]; exists {
			continue
		}
		pc.labels[key] = struct{}{}
		b = append(b, '.')
		b = append(b, tld...)
		start := pc.arena.Len()
		pc.arena.Write(b)
		return pc.arena.String()[start:]
	}
}
