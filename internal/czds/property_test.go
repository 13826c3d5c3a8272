package czds

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"darkdns/internal/registry"
	"darkdns/internal/simclock"
	"darkdns/internal/zoneset"
)

// TestPropertyEverSeenMatchesBruteForce compares the interval-index
// implementation of EverSeen against a brute-force scan over retained
// snapshot contents, under random continuous-presence histories fed as
// the diffs between consecutive snapshots. FuzzDiffHistoryEqualsSnapshots
// below extends it to the diffs a real registry publishes.
func TestPropertyEverSeenMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newPublisher()

		const days = 20
		type window struct{ from, to int } // inclusive day range in zone
		truth := make(map[string]window)
		var domains []string
		for i := 0; i < 30; i++ {
			d := fmt.Sprintf("d%02d-%d.com", i, seed)
			from := rng.Intn(days)
			to := from + rng.Intn(days-from)
			truth[d] = window{from, to}
			domains = append(domains, d)
		}
		for i := 0; i < days; i++ {
			var zone []string
			for d, w := range truth {
				if i >= w.from && i <= w.to {
					zone = append(zone, d)
				}
			}
			p.publish("com", day(i), zone...)
		}

		for _, d := range domains {
			w := truth[d]
			for trial := 0; trial < 20; trial++ {
				qf := rng.Intn(days)
				qt := qf + rng.Intn(days-qf)
				got := p.svc.EverSeen(d, day(qf), day(qt))
				want := w.from <= qt && w.to >= qf
				if got != want {
					t.Fatalf("seed %d: EverSeen(%s, day%d..day%d) = %v, presence day%d..day%d",
						seed, d, qf, qt, got, w.from, w.to)
				}
			}
		}
	}
}

// FuzzDiffHistoryEqualsSnapshots drives a real registry through a
// timeline the input spells — registrations, deletions, re-registrations,
// NS updates, seeds, clock steps — with random publication
// delays, and checks that a Service fed only the registry's daily diffs
// answers exactly like a brute-force oracle over test-side zone clones
// taken at each publication — every driven name's delegation, read
// through Registry.Delegation: every delivered diff equals the diff of
// the clones around it, and InLatest, FirstSeen, EverSeen (the hull of the
// publications holding a name), ExistedBefore and Stats agree for every
// name at every step.
//
// The seeds are short: the fuzzer minimises each new interesting input
// before it counts it, and its byte-subset pass costs O(n²) runs, so
// 400-byte seeds spent a whole 20 s smoke minimising one input.
// TestDiffHistoryOverLongTimelines keeps the long programs.
func FuzzDiffHistoryEqualsSnapshots(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(randomProgram(seed, 48))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		checkHistory(t, prog)
	})
}

// TestDiffHistoryOverLongTimelines runs the fuzz target's property over
// six 200-step random timelines, long enough for a month of overtaken
// and delayed publications.
func TestDiffHistoryOverLongTimelines(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		checkHistory(t, randomProgram(seed, 400))
	}
}

func randomProgram(seed int64, n int) []byte {
	prog := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(prog)
	return prog
}

// The oracle takes its clone at each publication instant, so no rebuild
// may share one: a cadence of a prime number of seconds meets the daily
// publication grid only after 433 days, far past any timeline here.
const (
	rebuildEvery = 433 * time.Second
	horizon      = 30 * 24 * time.Hour
)

func checkHistory(t *testing.T, prog []byte) {
	var delaySeed int64
	if len(prog) >= 8 {
		delaySeed = int64(binary.LittleEndian.Uint64(prog))
	}
	clk := simclock.NewSim(t0)
	cfg := registry.DefaultConfig("xyz")
	cfg.ZoneUpdateEvery = rebuildEvery
	cfg.SnapshotDelay = func(rng *rand.Rand) time.Duration {
		if rng.Intn(4) == 0 {
			return time.Duration(24+rng.Intn(48)) * time.Hour // overtaken by the next day's
		}
		return time.Duration(rng.Intn(5)) * time.Hour // 0: delivered at once
	}
	reg := registry.New(cfg, clk, rand.New(rand.NewSource(delaySeed)))
	defer reg.Stop()

	svc := New()
	svc.Collect(reg)
	var delivered []zoneset.Diff
	reg.Subscribe(func(d zoneset.Diff) { delivered = append(delivered, d) })
	names := make([]string, 12)
	for i := range names {
		names[i] = fmt.Sprintf("n%02d.xyz", i)
	}
	var clones []zoneClone
	oracle := simclock.NewTicker(clk, cfg.SnapshotEvery, func(now time.Time) {
		c := zoneClone{serial: reg.Serial(), taken: now, ns: make(map[string][]string)}
		for _, name := range names {
			if ns, ok := reg.Delegation(name); ok {
				c.ns[name] = ns
			}
		}
		clones = append(clones, c)
	})
	defer oracle.Stop()
	seeds := make(map[string]time.Time)
	nsSets := [][]string{{"ns1.a.net"}, {"ns1.b.net", "ns2.b.net"}, {"ns1.c.net"}}

	checked := -1 // publications delivered at the last check
	for i := 0; i+1 < len(prog) && clk.Now().Before(t0.Add(horizon)); i += 2 {
		op, arg := prog[i], int(prog[i+1])
		name := names[arg%len(names)]
		switch op % 8 {
		case 0, 1:
			reg.Register(name, "R", nsSets[arg%len(nsSets)], netip.Addr{})
		case 2:
			reg.Delete(name)
		case 3:
			reg.UpdateNS(name, nsSets[(arg/len(names))%len(nsSets)])
		case 4:
			at := t0.Add(time.Duration(arg-64) * 6 * time.Hour) // -16 to +48 days
			svc.Seed(name, at)
			if s, ok := seeds[name]; !ok || at.Before(s) {
				seeds[name] = at
			}
		case 5:
			clk.Advance(time.Duration(arg+1) * 10 * time.Minute)
		default:
			clk.Advance(time.Duration(arg%30+1) * time.Minute)
		}
		// The service changes only by a delivery or a seed, and a seed
		// shows at the next check.
		if len(delivered) != checked {
			compareHistory(t, svc, delivered, clones, names, seeds)
			checked = len(delivered)
		}
	}
	clk.Advance(4 * 24 * time.Hour) // let every delayed publication land
	compareHistory(t, svc, delivered, clones, names, seeds)
}

// zoneClone is the test's copy of the zone at one publication.
type zoneClone struct {
	serial uint32
	taken  time.Time
	ns     map[string][]string
}

// diffClones is the change from old to cur as the registry publishes it.
func diffClones(old, cur zoneClone) zoneset.Diff {
	d := zoneset.Diff{TLD: "xyz", Serial: cur.serial, Taken: cur.taken}
	for name, ns := range cur.ns {
		if o, ok := old.ns[name]; !ok {
			d.Added = append(d.Added, name)
		} else if !slices.Equal(o, ns) {
			d.Changed = append(d.Changed, name)
		}
	}
	for name := range old.ns {
		if _, ok := cur.ns[name]; !ok {
			d.Removed = append(d.Removed, name)
		}
	}
	slices.Sort(d.Added)
	slices.Sort(d.Removed)
	slices.Sort(d.Changed)
	return d
}

// compareHistory checks svc against the clones of the publications
// delivered so far.
func compareHistory(t *testing.T, svc *Service, delivered []zoneset.Diff, clones []zoneClone, names []string, seeds map[string]time.Time) {
	t.Helper()
	if len(delivered) > len(clones) {
		t.Fatalf("%d publications delivered, %d taken", len(delivered), len(clones))
	}
	clones = clones[:len(delivered)]
	var stats DiffStats
	prev := zoneClone{}
	for i, c := range clones {
		want := diffClones(prev, c)
		got := delivered[i]
		if got.TLD != want.TLD || got.Serial != want.Serial || !got.Taken.Equal(want.Taken) ||
			!slices.Equal(got.Added, want.Added) || !slices.Equal(got.Removed, want.Removed) || !slices.Equal(got.Changed, want.Changed) {
			t.Fatalf("publication %d: diff %+v, clones give %+v", i, got, want)
		}
		if i > 0 {
			stats.Added += int64(len(want.Added))
			stats.Removed += int64(len(want.Removed))
			stats.Changed += int64(len(want.Changed))
		}
		prev = c
	}
	if got := svc.Stats("xyz"); got != stats {
		t.Fatalf("after %d publications: Stats %+v, clones give %+v", len(clones), got, stats)
	}

	// Probe instants: every publication's Taken and the hours around it.
	var probes []time.Time
	for _, c := range clones {
		probes = append(probes, c.taken.Add(-time.Hour), c.taken, c.taken.Add(time.Hour))
	}
	for _, name := range names {
		var first, last time.Time
		for _, c := range clones {
			if _, in := c.ns[name]; in {
				if first.IsZero() {
					first = c.taken
				}
				last = c.taken
			}
		}
		inLatest := false
		if len(clones) > 0 {
			_, inLatest = clones[len(clones)-1].ns[name]
		}
		if got := svc.InLatest(name); got != inLatest {
			t.Fatalf("after %d publications: InLatest(%s) = %v, want %v", len(clones), name, got, inLatest)
		}
		if got, ok := svc.FirstSeen(name); ok != !first.IsZero() || !got.Equal(first) {
			t.Fatalf("after %d publications: FirstSeen(%s) = %v, %v, want %v", len(clones), name, got, ok, first)
		}
		for i, from := range probes {
			// Windows of one, two and four probe steps and one to the
			// end: short ones fall in a name's gaps, long ones span them.
			for _, j := range []int{i, i + 1, i + 3, len(probes) - 1} {
				if j >= len(probes) {
					continue
				}
				to := probes[j]
				want := !first.IsZero() && !first.After(to) && !last.Before(from)
				if got := svc.EverSeen(name, from, to); got != want {
					t.Fatalf("after %d publications: EverSeen(%s, %v, %v) = %v, want %v (hull %v..%v)",
						len(clones), name, from, to, got, want, first, last)
				}
			}
			seed, seeded := seeds[name]
			want := (seeded && seed.Before(from)) || (!first.IsZero() && first.Before(from))
			if got := svc.ExistedBefore(name, from); got != want {
				t.Fatalf("after %d publications: ExistedBefore(%s, %v) = %v, want %v", len(clones), name, from, got, want)
			}
		}
	}
}
