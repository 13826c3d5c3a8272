package worldsim

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"darkdns/internal/certstream"
)

func tinyConfig(seed int64) Config {
	cfg := DefaultConfig(seed, 0.001)
	cfg.Weeks = 2
	return cfg
}

func TestWorldGeneratesGroundTruth(t *testing.T) {
	w := New(tinyConfig(1))
	if w.Domains.Len() == 0 {
		t.Fatal("no domains generated")
	}
	var fast, normal, certed int
	w.Domains.Range(func(d *Domain) {
		if d.FastDelete {
			fast++
			if d.Lifetime <= 0 || d.Lifetime >= 24*time.Hour {
				t.Fatalf("fast-deleted lifetime %v", d.Lifetime)
			}
		} else {
			normal++
		}
		if d.CertAsked {
			certed++
		}
	})
	if fast == 0 || normal == 0 {
		t.Fatalf("population: fast=%d normal=%d", fast, normal)
	}
	if certed == 0 {
		t.Fatal("no certificates requested")
	}
	if len(w.Ghosts) == 0 {
		t.Fatal("no ghost issuances scheduled")
	}
	w.Stop()
}

func TestWorldRunProducesObservables(t *testing.T) {
	w := New(tinyConfig(2))
	var events int
	w.Hub.Subscribe(func(certstream.Event) { events++ })
	w.Run()

	if events == 0 {
		t.Fatal("no certstream events during run")
	}
	if got := w.Log.Size(); got == 0 {
		t.Fatal("CT log empty")
	}
	if len(w.CZDS.TLDs()) == 0 {
		t.Fatal("no CZDS snapshots collected")
	}
	// The ccTLD must not appear in CZDS.
	for _, tld := range w.CZDS.TLDs() {
		if tld == "nl" {
			t.Error("ccTLD leaked into CZDS")
		}
	}
	// The zone history holds both the published zones and the seeded
	// pre-window history.
	published := 0
	w.Domains.Range(func(d *Domain) {
		if _, ok := w.CZDS.FirstSeen(d.Name); ok {
			published++
		}
	})
	seeded := 0
	for _, g := range w.Ghosts {
		if w.CZDS.ExistedBefore(g.Name, g.Created) {
			seeded++
		}
	}
	if published == 0 || seeded == 0 {
		t.Fatalf("zone history never populated: %d published, %d of %d ghosts seeded", published, seeded, len(w.Ghosts))
	}
}

func TestWorldDeterministicAcrossRuns(t *testing.T) {
	run := func() (int64, int) {
		w := New(tinyConfig(7))
		w.Run()
		return w.Log.Size(), w.Domains.Len()
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 || d1 != d2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", s1, d1, s2, d2)
	}
}

func TestGhostsNeverRegistered(t *testing.T) {
	w := New(tinyConfig(3))
	w.Run()
	for _, g := range w.Ghosts {
		if w.Registries[g.TLD].InZone(g.Name) {
			t.Errorf("ghost %s is in the zone", g.Name)
		}
		if _, ok := w.Registries[g.TLD].Lookup(g.Name); ok {
			t.Errorf("ghost %s has a ledger entry", g.Name)
		}
	}
}

func TestCertsRequireZonePresence(t *testing.T) {
	// Every CT entry for a non-ghost domain must have been logged at or
	// after the moment its domain could have entered the zone.
	w := New(tinyConfig(4))
	w.Run()
	ghosts := make(map[string]bool)
	for _, g := range w.Ghosts {
		ghosts[g.Name] = true
	}
	checked := 0
	for _, log := range w.Logs {
		entries, err := log.Range(0, log.Size())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			d := w.Domains.Get(e.CN)
			if d == nil || ghosts[e.CN] {
				continue
			}
			if e.Logged.Before(d.Created) {
				t.Fatalf("%s logged %v before creation %v", e.CN, e.Logged, d.Created)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no non-ghost entries checked")
	}
}

func TestProbeBackend(t *testing.T) {
	w := New(tinyConfig(5))
	// Find a long-lived domain, run past its creation, then probe.
	var target *Domain
	w.Domains.Range(func(d *Domain) {
		if !d.FastDelete && d.Lifetime == 0 && d.TLD == "com" {
			if target == nil || d.Created.Before(target.Created) {
				target = d
			}
		}
	})
	if target == nil {
		t.Skip("no long-lived com domain at this scale")
	}
	w.Clock.RunUntil(target.Created.Add(2 * time.Minute))
	backend := w.ProbeBackend()
	ns, ok := backend.AuthoritativeNS(target.Name)
	if !ok || len(ns) == 0 {
		t.Fatalf("AuthoritativeNS(%s) = %v, %v", target.Name, ns, ok)
	}
	if addrs := backend.LookupA(target.Name); len(addrs) != 1 {
		t.Fatalf("LookupA(%s) = %v", target.Name, addrs)
	}
	if addrs := backend.LookupAAAA(target.Name); addrs != nil {
		t.Fatal("AAAA should be empty in this world")
	}
	if _, ok := backend.AuthoritativeNS("never-exists.com"); ok {
		t.Fatal("unknown domain resolved")
	}
	w.Stop()
}

// worldFingerprint canonically serializes a freshly built world's ground
// truth: every domain record (sorted by name) plus the ghost list in
// commit order.
func worldFingerprint(w *World) string {
	names := make([]string, 0, w.Domains.Len())
	w.Domains.Range(func(d *Domain) { names = append(names, d.Name) })
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "%+v\n", *w.Domains.Get(name))
	}
	for _, g := range w.Ghosts {
		fmt.Fprintf(&sb, "ghost %+v\n", *g)
	}
	return sb.String()
}

// TestWorldIdenticalAcrossBuildWorkers: the two-phase builder's
// determinism contract — compiling per-TLD layouts serially, on a
// single-width pool, or on a wide pool must produce byte-identical
// worlds, both the static ground truth and the full event stream a run
// delivers.
func TestWorldIdenticalAcrossBuildWorkers(t *testing.T) {
	base := tinyConfig(11)
	fingerprint := func(workers int) (string, string) {
		cfg := base
		cfg.BuildWorkers = workers
		w := New(cfg)
		fp := worldFingerprint(w)
		w.Stop()
		evs := RecordedEvents(cfg)
		var sb strings.Builder
		for _, ev := range evs {
			fmt.Fprintf(&sb, "%+v\n", ev)
		}
		return fp, sb.String()
	}
	serialWorld, serialEvents := fingerprint(0)
	for _, workers := range []int{1, 8} {
		world, events := fingerprint(workers)
		if world != serialWorld {
			t.Errorf("BuildWorkers=%d ground truth diverges from serial", workers)
		}
		if events != serialEvents {
			t.Errorf("BuildWorkers=%d event stream diverges from serial", workers)
		}
	}
}

// TestWorldIdenticalAcrossCommitWorkers: the commit engine's
// determinism contract — installing compiled layouts serially, on a
// single-width pool, or on a wide pool must produce byte-identical
// worlds (ground truth, ghost ledger order via worldFingerprint, and
// the full event stream a run delivers), alone and stacked with the
// compile fan-out.
func TestWorldIdenticalAcrossCommitWorkers(t *testing.T) {
	base := tinyConfig(11)
	fingerprint := func(buildWorkers, commitWorkers int) (string, string) {
		cfg := base
		cfg.BuildWorkers = buildWorkers
		cfg.CommitWorkers = commitWorkers
		w := New(cfg)
		fp := worldFingerprint(w)
		w.Stop()
		evs := RecordedEvents(cfg)
		var sb strings.Builder
		for _, ev := range evs {
			fmt.Fprintf(&sb, "%+v\n", ev)
		}
		return fp, sb.String()
	}
	serialWorld, serialEvents := fingerprint(0, 0)
	for _, workers := range [][2]int{{0, 1}, {0, 8}, {8, 8}} {
		world, events := fingerprint(workers[0], workers[1])
		if world != serialWorld {
			t.Errorf("BuildWorkers=%d CommitWorkers=%d ground truth diverges from serial",
				workers[0], workers[1])
		}
		if events != serialEvents {
			t.Errorf("BuildWorkers=%d CommitWorkers=%d event stream diverges from serial",
				workers[0], workers[1])
		}
	}
}

// TestChunkedCommitIdentical: at a scale where plans split into multiple
// compile chunks (so the commit engine sees many layouts per plan), the
// built ground truth must stay byte-identical across commit widths.
func TestChunkedCommitIdentical(t *testing.T) {
	base := DefaultConfig(19, 0.01)
	base.Weeks = 2
	base.BuildWorkers = 4
	build := func(workers int) string {
		cfg := base
		cfg.CommitWorkers = workers
		w := New(cfg)
		defer w.Stop()
		return worldFingerprint(w)
	}
	serial := build(0)
	for _, workers := range []int{1, 8} {
		if build(workers) != serial {
			t.Errorf("CommitWorkers=%d chunked ground truth diverges from serial", workers)
		}
	}
}

// TestDomainNamesUniqueWorldwide: collision checks are per-TLD-chunk
// now (names embed their TLD; chunks stamp a discriminator), so this
// regression test pins the invariant that generated names —
// registrations and ghosts — stay unique across the whole world, at a
// scale where the dominant plans split into several chunks.
func TestDomainNamesUniqueWorldwide(t *testing.T) {
	cfg := DefaultConfig(13, 0.01)
	cfg.Weeks = 2
	cfg.BuildWorkers = 4
	cfg.CommitWorkers = 4
	if k := planChunks(&cfg, PaperPlans()[0]); k < 2 {
		t.Fatalf("com plan compiles in %d chunk(s); test needs a multi-chunk scale", k)
	}
	w := New(cfg)
	defer w.Stop()
	if n := w.dupNames.Load(); n != 0 {
		t.Fatalf("%d duplicate names across layouts", n)
	}
	seen := make(map[string]bool, w.Domains.Len()+len(w.Ghosts))
	w.Domains.Range(func(d *Domain) { seen[d.Name] = true })
	for _, g := range w.Ghosts {
		if seen[g.Name] {
			t.Errorf("ghost name %s collides with another generated name", g.Name)
		}
		seen[g.Name] = true
	}
}

// TestChunkedBuildIdentical: at a scale where plans split into multiple
// compile chunks, the built ground truth must still be byte-identical
// across compile widths (build-only — the event-stream identity is
// covered at single-chunk scale by TestWorldIdenticalAcrossBuildWorkers
// and at campaign level in analysis).
func TestChunkedBuildIdentical(t *testing.T) {
	base := DefaultConfig(19, 0.01)
	base.Weeks = 2
	build := func(workers int) string {
		cfg := base
		cfg.BuildWorkers = workers
		w := New(cfg)
		defer w.Stop()
		return worldFingerprint(w)
	}
	serial := build(0)
	for _, workers := range []int{1, 8} {
		if build(workers) != serial {
			t.Errorf("BuildWorkers=%d chunked ground truth diverges from serial", workers)
		}
	}
}

func TestPlansMatchPaperTotals(t *testing.T) {
	plans := PaperPlans()
	var ct, zone, trans int
	for _, p := range plans {
		ct += p.CTTotal()
		zone += p.ZoneNRDs
		trans += p.TransientTotal()
	}
	// Paper totals: 6,835,849 CT NRDs; 16,292,141 zone NRDs; 68,042
	// transients.
	if ct < 6_700_000 || ct > 6_950_000 {
		t.Errorf("CT total = %d, want ≈6.84M", ct)
	}
	if zone < 16_000_000 || zone > 16_600_000 {
		t.Errorf("zone total = %d, want ≈16.29M", zone)
	}
	if trans < 66_000 || trans > 70_000 {
		t.Errorf("transient total = %d, want ≈68k", trans)
	}
}
