package worldsim

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"darkdns/internal/simclock"
)

// commitShell returns a world that shares base's substrates but has its
// own clock and no ground truth, so a test can commit hand-made layouts
// into it.
func commitShell(base *World) *World {
	return &World{
		Cfg:        base.Cfg,
		Clock:      simclock.NewSim(base.Cfg.Start),
		CZDS:       base.CZDS,
		CAs:        base.CAs,
		Blocklists: base.Blocklists,
		NOD:        base.NOD,
	}
}

// regAt is a hand-made registration layout for name, tagged by the
// registrar field so a test can tell which layout's record won.
func regAt(name, tag string, at time.Time) regLayout {
	return regLayout{d: &Domain{Name: name, Registrar: tag, Created: at}}
}

// TestDomainStoreBasics pins the store's accessor semantics after a
// commit: Get misses return nil, Len counts distinct registrations,
// Range visits every record exactly once, and ghost names are invisible
// to Get.
func TestDomainStoreBasics(t *testing.T) {
	w := commitShell(newShellBase())
	at := w.Cfg.Start
	w.commit([]*Layout{{
		domains: []regLayout{regAt("alpha.com", "a", at), regAt("beta.com", "a", at)},
		ghosts:  []ghostLayout{{d: &Domain{Name: "ghost.com", Created: at, Ghost: true}}},
	}})
	if w.Domains.Get("absent.com") != nil {
		t.Error("Get of a name never generated returned a record")
	}
	if w.Domains.Get("ghost.com") != nil {
		t.Error("ghost name visible through Get")
	}
	if w.Domains.Len() != 2 {
		t.Errorf("Len = %d, want 2", w.Domains.Len())
	}
	seen := map[string]int{}
	w.Domains.Range(func(d *Domain) { seen[d.Name]++ })
	if len(seen) != 2 || seen["alpha.com"] != 1 || seen["beta.com"] != 1 {
		t.Errorf("Range visited %v, want alpha.com and beta.com once each", seen)
	}
	if len(w.Ghosts) != 1 || w.Ghosts[0].Name != "ghost.com" {
		t.Errorf("ghost ledger = %v, want [ghost.com]", w.Ghosts)
	}
	if w.dupNames != 0 {
		t.Errorf("dupNames = %d for distinct names", w.dupNames)
	}
}

// newShellBase builds a tiny world, stopped, whose substrates a test's
// commit shells share.
func newShellBase() *World {
	base := New(tinyConfig(3))
	base.Stop()
	return base
}

// duplicateLayouts returns three hand-made layouts that share names:
// clash.com is registered by all three, solo.com by the first and a
// ghost of the third, spook.com by the third and ghosts of the first
// and third. Each record's Registrar names its layout.
func duplicateLayouts(at time.Time) []*Layout {
	ghost := func(name string) ghostLayout {
		return ghostLayout{d: &Domain{Name: name, Created: at, Ghost: true}}
	}
	return []*Layout{
		{
			domains: []regLayout{regAt("clash.com", "first", at), regAt("solo.com", "first", at)},
			ghosts:  []ghostLayout{ghost("spook.com")},
		},
		{domains: []regLayout{regAt("clash.com", "second", at)}},
		{
			domains: []regLayout{regAt("clash.com", "third", at), regAt("spook.com", "third", at)},
			ghosts:  []ghostLayout{ghost("solo.com"), ghost("spook.com")},
		},
	}
}

// TestDomainStoreDuplicateWinnerByRank: when layouts own the same name
// (off-contract duplicate-TLD plans), the record of the layout with the
// highest canonical rank wins — in the serial commit that is the last
// writer — whatever mix of registrations and ghosts shares the name.
func TestDomainStoreDuplicateWinnerByRank(t *testing.T) {
	w := commitShell(newShellBase())
	at := w.Cfg.Start
	w.commit(duplicateLayouts(at))
	for name, want := range map[string]string{"clash.com": "third", "solo.com": "first", "spook.com": "third"} {
		if d := w.Domains.Get(name); d == nil || d.Registrar != want {
			t.Errorf("%s: winner %+v, want the %s layout's record", name, d, want)
		}
	}
	if w.Domains.Len() != 3 {
		t.Errorf("Len = %d, want 3", w.Domains.Len())
	}
	var ledger []string
	for _, g := range w.Ghosts {
		ledger = append(ledger, g.Name)
	}
	if fmt.Sprint(ledger) != "[spook.com solo.com spook.com]" {
		t.Errorf("ghost ledger = %v, want canonical layout order", ledger)
	}
}

// TestDomainStoreDuplicatesExactUnderConcurrency: the commit's safety
// net (World.dupNames) counts exactly occurrences−1 per name, ghosts
// included — for hand-made layouts, and for two copies of a world's
// layouts compiled on a concurrent compile pool, where every name of
// the second copy is a duplicate of the first.
func TestDomainStoreDuplicatesExactUnderConcurrency(t *testing.T) {
	base := newShellBase()
	w := commitShell(base)
	w.commit(duplicateLayouts(w.Cfg.Start))
	// clash.com: 3 registrations; solo.com: 1 registration + 1 ghost;
	// spook.com: 1 registration + 2 ghosts.
	if want := (3 - 1) + (2 - 1) + (3 - 1); w.dupNames != want {
		t.Errorf("hand-made layouts: dupNames = %d, want %d", w.dupNames, want)
	}

	cfg := base.Cfg
	cfg.BuildWorkers = 8
	env := &buildEnv{
		cfg:    &cfg,
		numCAs: len(base.CAs),
		lists:  base.Blocklists.Models(),
		nodCfg: base.NOD.Config(),
	}
	first, second := compileLayouts(env), compileLayouts(env)
	regs, ghosts := 0, 0
	for _, l := range second {
		regs += len(l.domains)
		ghosts += len(l.ghosts)
	}
	if regs == 0 || ghosts == 0 {
		t.Fatalf("degenerate layouts: %d registrations, %d ghosts", regs, ghosts)
	}
	w = commitShell(base)
	w.commit(append(first, second...))
	if want := regs + ghosts; w.dupNames != want {
		t.Errorf("compiled copies: dupNames = %d, want exactly %d", w.dupNames, want)
	}
	if w.Domains.Len() != regs {
		t.Errorf("compiled copies: Len = %d, want %d", w.Domains.Len(), regs)
	}
	for _, l := range second {
		for j := range l.domains {
			if d := l.domains[j].d; w.Domains.Get(d.Name) != d {
				t.Fatalf("%s: winner is not the second copy's record", d.Name)
			}
		}
	}
}

// TestDomainStoreRaceHammer drives a built world's store the way a
// campaign reads it: concurrent Get, Range and first mail probes from
// many goroutines after New. Run under -race in CI; the assertions check
// that every reader sees every record and that concurrent first probes
// share one answer.
func TestDomainStoreRaceHammer(t *testing.T) {
	w := New(tinyConfig(5))
	w.Stop()
	var names []string
	w.Domains.Range(func(d *Domain) {
		if d.HasMX {
			names = append(names, d.Name)
		}
	})
	if len(names) == 0 {
		t.Fatal("degenerate world: no record publishes MX")
	}
	const readers = 8
	first := make([][]*string, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 0
			w.Domains.Range(func(d *Domain) {
				if w.Domains.Get(d.Name) != d {
					t.Errorf("Get(%s) disagrees with Range", d.Name)
				}
				n++
			})
			if n != w.Domains.Len() {
				t.Errorf("Range visited %d records, Len = %d", n, w.Domains.Len())
			}
			seen := make([]*string, len(names))
			for i := range names {
				// Half the readers walk the names backwards, so first
				// probes of one record race from both ends.
				j := i
				if g%2 == 1 {
					j = len(names) - 1 - i
				}
				seen[j] = &w.Domains.mailAnswers(names[j]).mx[0]
			}
			first[g] = seen
		}(g)
	}
	wg.Wait()
	for g := 1; g < readers; g++ {
		for i, name := range names {
			if first[g][i] != first[0][i] {
				t.Fatalf("%s: reader %d was handed a different MX answer than reader 0", name, g)
			}
		}
	}
}
