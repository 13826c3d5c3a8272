package simclock

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLookaheadFiresAcrossTimestamps: the engine's reason to exist —
// effect-disjoint events at distinct instants fire in one window, each
// receiving its own scheduled instant (not the lagging committed time),
// and the speculative-fire counter proves timestamps were crossed.
func TestLookaheadFiresAcrossTimestamps(t *testing.T) {
	s := NewSim(epoch)
	var mu sync.Mutex
	got := map[string]time.Time{}
	for i, d := range []string{"a.com", "b.net", "c.org", "d.io"} {
		d := d
		s.ScheduleTagged(TaggedTimed{
			At:  epoch.Add(time.Duration(i) * time.Minute),
			Tag: DomainTag(d),
			Fn: func(now time.Time) {
				mu.Lock()
				got[d] = now
				mu.Unlock()
			},
		})
	}
	if n := s.drain(unbounded, 8, 4); n != 4 {
		t.Fatalf("fired %d, want 4", n)
	}
	for i, d := range []string{"a.com", "b.net", "c.org", "d.io"} {
		want := epoch.Add(time.Duration(i) * time.Minute)
		if !got[d].Equal(want) {
			t.Fatalf("%s fired with now=%v, want %v", d, got[d], want)
		}
	}
	st := s.Stats()
	if st.Windows == 0 {
		t.Fatalf("Windows = 0, want ≥ 1")
	}
	if st.SpecFired != 3 {
		t.Fatalf("SpecFired = %d, want 3 (events beyond the window's first instant)", st.SpecFired)
	}
}

// TestLookaheadWindowOneNeverSpeculates: window 1 exercises the tagged
// machinery but must stay within a single instant per round.
func TestLookaheadWindowOneNeverSpeculates(t *testing.T) {
	s := NewSim(epoch)
	for i := 0; i < 6; i++ {
		s.ScheduleTagged(TaggedTimed{
			At:  epoch.Add(time.Duration(i) * time.Second),
			Tag: DomainTag(fmt.Sprintf("d%d.com", i)),
			Fn:  func(time.Time) {},
		})
	}
	if n := s.drain(unbounded, 1, 4); n != 6 {
		t.Fatalf("fired %d, want 6", n)
	}
	if st := s.Stats(); st.SpecFired != 0 {
		t.Fatalf("SpecFired = %d, want 0 at window 1", st.SpecFired)
	}
}

// TestLookaheadSameAtomStaysOrdered: two events sharing an effect atom
// land in one conflict group and fire in (timestamp, seq) order even at
// full window and pool width.
func TestLookaheadSameAtomStaysOrdered(t *testing.T) {
	s := NewSim(epoch)
	var order []int
	var mu sync.Mutex
	rec := func(i int) func(time.Time) {
		return func(time.Time) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}
	}
	tag := DomainTag("shared.com")
	s.ScheduleTagged(TaggedTimed{At: epoch.Add(2 * time.Minute), Tag: tag, Fn: rec(2)})
	s.ScheduleTagged(TaggedTimed{At: epoch.Add(1 * time.Minute), Tag: tag, Fn: rec(1)})
	s.ScheduleTagged(TaggedTimed{At: epoch.Add(3 * time.Minute), Tag: tag, Fn: rec(3)})
	s.drain(unbounded, 16, 8)
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order %v, want [1 2 3]", order)
		}
	}
	if st := s.Stats(); st.Conflicts == 0 {
		t.Fatalf("Conflicts = 0, want > 0 for same-atom events")
	}
}

// TestLookaheadUntaggedIsBarrier: an untagged event between tagged ones
// stops the scan — everything before it fires first, the barrier fires
// at its own committed instant, and only then does the tail fire. The
// barrier callback observes Clock.Now() == its own instant.
func TestLookaheadUntaggedIsBarrier(t *testing.T) {
	s := NewSim(epoch)
	var order []string
	var mu sync.Mutex
	rec := func(l string) {
		mu.Lock()
		order = append(order, l)
		mu.Unlock()
	}
	s.ScheduleTagged(TaggedTimed{At: epoch.Add(1 * time.Minute), Tag: DomainTag("a.com"),
		Fn: func(time.Time) { rec("a") }})
	barrierAt := epoch.Add(2 * time.Minute)
	s.After(2*time.Minute, func() {
		if !s.Now().Equal(barrierAt) {
			t.Errorf("barrier saw Now()=%v, want %v", s.Now(), barrierAt)
		}
		rec("barrier")
	})
	s.ScheduleTagged(TaggedTimed{At: epoch.Add(3 * time.Minute), Tag: DomainTag("b.net"),
		Fn: func(time.Time) { rec("c") }})
	s.drain(unbounded, 16, 4)
	want := []string{"a", "barrier", "c"}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if st := s.Stats(); st.Barriers != 1 {
		t.Fatalf("Barriers = %d, want 1", st.Barriers)
	}
}

// TestLookaheadQuietHorizon: an event declaring a Quiet instant caps the
// scan — later events are not selected into its window, so an untagged
// follow-up spawned at Quiet is never jumped over.
func TestLookaheadQuietHorizon(t *testing.T) {
	s := NewSim(epoch)
	var order []string
	var mu sync.Mutex
	rec := func(l string) {
		mu.Lock()
		order = append(order, l)
		mu.Unlock()
	}
	s.ScheduleTagged(TaggedTimed{
		At:    epoch.Add(1 * time.Minute),
		Tag:   DomainTag("a.com"),
		Quiet: epoch.Add(5 * time.Minute),
		Fn: func(now time.Time) {
			rec("reg")
			// The untagged follow-up this event warned about via Quiet.
			s.At(now.Add(4*time.Minute), func() { rec("cert") })
		},
	})
	// Past the quiet horizon: must not enter the first window.
	s.ScheduleTagged(TaggedTimed{At: epoch.Add(10 * time.Minute), Tag: DomainTag("b.net"),
		Fn: func(time.Time) { rec("late") }})
	s.drain(unbounded, 16, 4)
	want := []string{"reg", "cert", "late"}
	for i, v := range want {
		if len(order) <= i || order[i] != v {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestLookaheadDynamicTagAt: a TagAt closure is resolved at scan time,
// and a resolved-zero mask degrades the event to an untagged barrier.
func TestLookaheadDynamicTagAt(t *testing.T) {
	s := NewSim(epoch)
	var mask atomic.Uint64
	mask.Store(uint64(DomainTag("x.com")))
	fired := 0
	s.ScheduleTagged(TaggedTimed{
		At:    epoch.Add(time.Minute),
		TagAt: func() EffectTag { return EffectTag(mask.Load()) },
		Fn:    func(time.Time) { fired++ },
	})
	s.ScheduleTagged(TaggedTimed{At: epoch.Add(2 * time.Minute), Tag: DomainTag("y.net"),
		Fn: func(time.Time) { fired++ }})
	s.drain(unbounded, 8, 2)
	if fired != 2 {
		t.Fatalf("fired %d, want 2", fired)
	}
	if st := s.Stats(); st.SpecFired == 0 {
		t.Fatalf("SpecFired = 0, want > 0 (dynamic tag should allow speculation)")
	}

	// Zero-resolving TagAt: both events become barrier rounds.
	s2 := NewSim(epoch)
	s2.ScheduleTagged(TaggedTimed{
		At:    epoch.Add(time.Minute),
		TagAt: func() EffectTag { return 0 },
		Fn:    func(time.Time) {},
	})
	s2.ScheduleTagged(TaggedTimed{At: epoch.Add(2 * time.Minute), Tag: DomainTag("y.net"),
		Fn: func(time.Time) {}})
	s2.drain(unbounded, 8, 2)
	if st := s2.Stats(); st.SpecFired != 0 {
		t.Fatalf("SpecFired = %d, want 0 when the first event resolves untagged", st.SpecFired)
	}
}

// TestLookaheadMatchesSerialExactly: the determinism contract at engine
// level — a mixed tagged/untagged/conflicting timeline produces the same
// observable trace one event at a time and through the drain at every
// setting: no lookahead at width 1 and 8 (what Run and the former batched
// drain are), and several windows and worker counts. Tagged callbacks log
// their explicit instant; same-atom callbacks must interleave identically.
func TestLookaheadMatchesSerialExactly(t *testing.T) {
	build := func(s *Sim, log *[]string, mu *sync.Mutex) {
		rec := func(l string, at time.Time) {
			mu.Lock()
			*log = append(*log, fmt.Sprintf("%s@%s", l, at.Format(time.RFC3339)))
			mu.Unlock()
		}
		for i := 0; i < 40; i++ {
			i := i
			d := fmt.Sprintf("d%d.example", i%7) // 7 names → forced same-atom conflicts
			at := epoch.Add(time.Duration(i*13) * time.Second)
			s.ScheduleTagged(TaggedTimed{At: at, Tag: DomainTag(d), Fn: func(now time.Time) {
				rec(fmt.Sprintf("tag%d/%s", i, d), now)
				if i%5 == 0 {
					// Tagged follow-up under the same mask.
					s.ScheduleTagged(TaggedTimed{At: now.Add(90 * time.Second), Tag: DomainTag(d),
						Fn: func(n2 time.Time) { rec(fmt.Sprintf("fup%d/%s", i, d), n2) }})
				}
			}})
		}
		for i := 0; i < 8; i++ {
			i := i
			at := time.Duration(60+i*97) * time.Second
			s.After(at, func() { rec(fmt.Sprintf("bar%d", i), s.Now()) })
		}
	}
	var ref []string
	{
		s := NewSim(epoch)
		var mu sync.Mutex
		build(s, &ref, &mu)
		oneAtATime(s)
	}
	for _, cfg := range []struct{ window, workers int }{{0, 1}, {0, 8}, {1, 1}, {4, 2}, {16, 8}} {
		var got []string
		s := NewSim(epoch)
		var mu sync.Mutex
		build(s, &got, &mu)
		s.drain(unbounded, cfg.window, cfg.workers)
		if len(got) != len(ref) {
			t.Fatalf("window=%d workers=%d: %d entries, want %d", cfg.window, cfg.workers, len(got), len(ref))
		}
		// Cross-group interleaving is unobservable only through state the
		// masks cover; the shared log is global, so compare as multisets
		// plus per-label-prefix order (same-atom events share a group and
		// must keep serial relative order).
		if !sameMultiset(got, ref) {
			t.Fatalf("window=%d workers=%d: trace multiset diverged", cfg.window, cfg.workers)
		}
		for atom := 0; atom < 7; atom++ {
			suffix := fmt.Sprintf("/d%d.example", atom)
			if a, b := filterContains(ref, suffix), filterContains(got, suffix); !equalSlices(a, b) {
				t.Fatalf("window=%d workers=%d: atom %d order diverged\nserial: %v\nlookahead: %v",
					cfg.window, cfg.workers, atom, a, b)
			}
		}
	}
}

func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]int{}
	for _, s := range a {
		m[s]++
	}
	for _, s := range b {
		m[s]--
	}
	for _, n := range m {
		if n != 0 {
			return false
		}
	}
	return true
}

func filterContains(in []string, sub string) []string {
	var out []string
	for _, s := range in {
		if strings.Contains(s, sub) {
			out = append(out, s)
		}
	}
	return out
}

func equalSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLookaheadTagTableRaceHammer: tagged callbacks scheduling tagged
// follow-ups and external goroutines scheduling concurrently while the
// lookahead runs — the shape `go test -race` needs to see. Every
// event must fire exactly once.
func TestLookaheadTagTableRaceHammer(t *testing.T) {
	s := NewSim(epoch)
	var fired atomic.Int64
	const roots = 64
	var wg sync.WaitGroup
	for i := 0; i < roots; i++ {
		i := i
		d := fmt.Sprintf("h%d.example", i)
		s.ScheduleTagged(TaggedTimed{
			At:  epoch.Add(time.Duration(i%11) * time.Minute),
			Tag: DomainTag(d),
			Fn: func(now time.Time) {
				fired.Add(1)
				if i%3 == 0 {
					s.ScheduleTagged(TaggedTimed{At: now.Add(30 * time.Second), Tag: DomainTag(d),
						Fn: func(time.Time) { fired.Add(1) }})
				}
			},
		})
	}
	// External concurrent schedulers racing the drain.
	wg.Add(4)
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			defer wg.Done()
			for k := 0; k < 32; k++ {
				d := fmt.Sprintf("x%d-%d.example", g, k)
				s.ScheduleTagged(TaggedTimed{
					At:  epoch.Add(time.Duration(k%13) * time.Minute),
					Tag: DomainTag(d),
					Fn:  func(time.Time) { fired.Add(1) },
				})
			}
		}()
	}
	wg.Wait()
	total := s.drain(unbounded, 8, 4)
	want := int64(roots + roots/3 + 1 + 4*32)
	if fired.Load() != want || int64(total) != want {
		t.Fatalf("fired %d (drain reported %d), want %d", fired.Load(), total, want)
	}
}
