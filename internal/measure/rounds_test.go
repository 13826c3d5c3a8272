package measure

import (
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"darkdns/internal/simclock"
)

// TestRoundCoalescingEventCount: the acceptance bar for the round
// scheduler — probing a population through full 48-hour windows must
// book at least 10× fewer clock events than the per-probe design's one
// event per probe.
func TestRoundCoalescingEventCount(t *testing.T) {
	b := newFakeBackend()
	clk := simclock.NewSim(t0)
	f := NewFleet(DefaultConfig(), clk, b)
	const domains = 64
	for i := 0; i < domains; i++ {
		d := domainN(i)
		b.set(d, []string{"ns1.a.net"})
		f.Watch(d)
	}
	clk.Advance(49 * time.Hour)

	rep := f.Report()
	if rep.Probes < domains*280 {
		t.Fatalf("only %d probes for %d domains", rep.Probes, domains)
	}
	st := clk.Stats()
	if st.Scheduled*10 > rep.Probes {
		t.Errorf("scheduled %d clock events for %d probes; want ≥10× coalescing",
			st.Scheduled, rep.Probes)
	}
	if rep.Rounds == 0 || rep.MaxRound != domains {
		t.Errorf("round counters: rounds=%d maxRound=%d", rep.Rounds, rep.MaxRound)
	}
	if rep.Engine.Scheduled != st.Scheduled {
		t.Errorf("engine stats not coupled into report: %+v", rep.Engine)
	}
}

// TestRoundSchedulerDisarmsWhenIdle: once every watch retires, the round
// chain must stop re-arming so a drain-everything Run terminates and an
// idle fleet costs zero events.
func TestRoundSchedulerDisarmsWhenIdle(t *testing.T) {
	b := newFakeBackend()
	clk := simclock.NewSim(t0)
	f := NewFleet(DefaultConfig(), clk, b)
	b.set("x.com", []string{"ns1.a.net"})
	f.Watch("x.com")
	clk.Run() // must terminate: the window closes and the chain disarms
	if clk.Pending() != 0 {
		t.Fatalf("%d events pending after drain", clk.Pending())
	}
	st, _ := f.State("x.com")
	if !st.Finished {
		t.Fatalf("watch not finished: %+v", st)
	}
	// A fresh watch after quiescence re-arms.
	b.set("y.com", []string{"ns1.a.net"})
	f.Watch("y.com")
	if clk.Pending() == 0 {
		t.Fatal("round chain did not re-arm for a new watch")
	}
}

// TestRoundObservationsDeterministicAcrossPoolWidths: a fixed probe
// schedule must deliver byte-identical observation streams whatever the
// fleet pool width and whichever clock entry point drains it — the
// fleet-level half of the campaign determinism contract.
func TestRoundObservationsDeterministicAcrossPoolWidths(t *testing.T) {
	type runMode struct {
		name    string
		workers int
		drain   func(*simclock.Sim)
	}
	modes := []runMode{
		{"serial-w1", 1, func(s *simclock.Sim) { s.Advance(49 * time.Hour) }},
		{"serial-w16", 16, func(s *simclock.Sim) { s.Advance(49 * time.Hour) }},
		{"rununtil-w16", 16, func(s *simclock.Sim) { s.RunUntil(t0.Add(49 * time.Hour)) }},
	}
	logs := make(map[string][]string)
	for _, m := range modes {
		b := newFakeBackend()
		clk := simclock.NewSim(t0)
		cfg := DefaultConfig()
		cfg.Workers = m.workers
		f := NewFleet(cfg, clk, b)
		var log []string
		f.OnObservation(func(o Observation) {
			log = append(log, fmt.Sprintf("%s|%s|%v|%v", o.At.Format(time.RFC3339), o.Domain, o.InZone, o.NS))
		})
		for i := 0; i < 40; i++ {
			d := domainN(i)
			b.set(d, []string{"ns1.a.net"})
			f.Watch(d)
		}
		clk.Advance(2 * time.Hour)
		for i := 0; i < 40; i += 3 {
			b.set(domainN(i), nil) // takedown wave
		}
		m.drain(clk)
		logs[m.name] = log
	}
	want := logs[modes[0].name]
	if len(want) == 0 {
		t.Fatal("no observations")
	}
	for _, m := range modes[1:] {
		if !reflect.DeepEqual(want, logs[m.name]) {
			t.Errorf("%s observation stream diverges from %s (%d vs %d)",
				m.name, modes[0].name, len(logs[m.name]), len(want))
		}
	}
}

// echoBackend answers every name with a delegation derived from the name
// itself, so an observation whose NS does not belong to its Domain means
// two probes shared a result slot.
type echoBackend struct{}

func (echoBackend) AuthoritativeNS(d string) ([]string, bool) { return []string{"ns." + d}, true }
func (echoBackend) LookupA(string) []netip.Addr               { return nil }
func (echoBackend) LookupAAAA(string) []netip.Addr            { return nil }

// TestAdmissionProbesNeverShareRoundBuffer is the -race workout for the
// round-owned buffer: under the real-time clock rounds fire on timer
// goroutines every couple of milliseconds while four goroutines admit
// watches, each admission probing in its own one-slot memory. The race
// detector must stay quiet, every observation must carry its own domain's
// answer, and every probe must have been delivered exactly once, at any
// legacy apply width.
func TestAdmissionProbesNeverShareRoundBuffer(t *testing.T) {
	for _, aw := range []int{0, 4} {
		t.Run(fmt.Sprintf("apply-%d", aw), func(t *testing.T) {
			const admitters, perAdmitter = 4, 150
			cfg := legacyWidths(DefaultConfig(), 0, aw)
			cfg.Interval = 2 * time.Millisecond
			cfg.Window = 100 * time.Millisecond
			f := NewFleet(cfg, simclock.Real{}, echoBackend{})

			var mu sync.Mutex
			seen := make(map[string]int)
			var bad []string
			f.OnObservation(func(o Observation) {
				mu.Lock()
				defer mu.Unlock()
				if len(o.NS) != 1 || o.NS[0] != "ns."+o.Domain || !o.InZone {
					bad = append(bad, fmt.Sprintf("%s answered %v", o.Domain, o.NS))
				}
				seen[o.Domain]++
			})

			var wg sync.WaitGroup
			for g := 0; g < admitters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perAdmitter; i++ {
						f.Watch(fmt.Sprintf("g%d-%03d.com", g, i))
						if i%10 == 9 {
							time.Sleep(time.Millisecond) // let rounds interleave with admissions
						}
					}
				}(g)
			}
			wg.Wait()

			// Windows close 100 ms after the last admission and the chain
			// disarms, so the fleet goes quiet on its own.
			deadline := time.Now().Add(10 * time.Second)
			for f.Report().Finished < admitters*perAdmitter {
				if time.Now().After(deadline) {
					t.Fatalf("fleet never drained: %+v", f.Report())
				}
				time.Sleep(5 * time.Millisecond)
			}
			time.Sleep(2 * cfg.Interval) // a round retiring the last watch may still be delivering

			mu.Lock()
			defer mu.Unlock()
			for _, s := range bad {
				t.Errorf("observation from a shared slot: %s", s)
			}
			rep := f.Report()
			if rep.Watched != admitters*perAdmitter || rep.Rounds < 3 {
				t.Fatalf("watched=%d rounds=%d: rounds never overlapped the admissions", rep.Watched, rep.Rounds)
			}
			var delivered int64
			for _, st := range f.States() {
				if seen[st.Domain] != st.Probes || st.Probes < 1 {
					t.Errorf("%s: %d probes, %d observations", st.Domain, st.Probes, seen[st.Domain])
				}
				delivered += int64(seen[st.Domain])
			}
			if delivered != rep.Probes {
				t.Errorf("%d observations for %d probes", delivered, rep.Probes)
			}
		})
	}
}

// TestRetirePassKeepsExactlyLiveWatches: retirement leaves the watch list
// holding exactly the unfinished watches, in admission order, plus only
// StopWhenDead-finished entries still waiting to reach the front (which
// it pops, never leaving one first), at any legacy probe and apply width —
// with admissions staggered over ten rounds so windows close round after
// round, and a StopWhenDead takedown wave so apply finishes watches too.
// A watch that dies in one round is never probed again, and the round that
// retires the last watch leaves the clock drained.
func TestRetirePassKeepsExactlyLiveWatches(t *testing.T) {
	for _, pw := range []int{0, 1, 8} {
		for _, aw := range []int{0, 1, 8} {
			t.Run(fmt.Sprintf("probe-%d/apply-%d", pw, aw), func(t *testing.T) {
				fb := newFakeBackend()
				clk := simclock.NewSim(t0)
				cfg := legacyWidths(DefaultConfig(), pw, aw)
				cfg.Window = 2 * time.Hour
				cfg.StopWhenDead = true
				f := NewFleet(cfg, clk, &handleBackend{fakeBackend: fb})
				lastProbe := make(map[string]time.Time)
				f.OnObservation(func(o Observation) { lastProbe[o.Domain] = o.At })

				var admitted []string
				for round := 0; round < 100; round++ {
					if round < 10 {
						for i := 3 * round; i < 3*round+3; i++ {
							fb.set(domainN(i), []string{"ns1.a.net"})
							f.Watch(domainN(i))
							admitted = append(admitted, domainN(i))
						}
					}
					for i := 0; i < len(admitted); i += 4 {
						if round == 2+i%5 {
							fb.set(domainN(i), nil) // dies in this round
						}
					}
					clk.Advance(cfg.Interval)

					var want []string
					for _, d := range admitted {
						st, _ := f.State(d)
						if !st.Finished {
							want = append(want, d)
						}
						if !st.DeadAt.IsZero() && !lastProbe[d].Equal(st.DeadAt) {
							t.Fatalf("round %d: %s died at %v but was probed at %v", round, d, st.DeadAt, lastProbe[d])
						}
					}
					f.mu.Lock()
					var got []string
					for i, st := range f.watchList {
						if st.Finished && (i == 0 || st.DeadAt.IsZero()) {
							t.Fatalf("round %d: finished %s left at list position %d", round, st.Domain, i)
						}
						if !st.Finished {
							got = append(got, st.Domain)
						}
					}
					f.mu.Unlock()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: watch list %v, want the unfinished watches %v", round, got, want)
					}
					if len(want) == 0 && round >= 10 {
						if n := clk.Pending(); n != 0 {
							t.Fatalf("round %d retired the last watch but left %d events pending", round, n)
						}
						rep := f.Report()
						if rep.Died == 0 || rep.Finished != len(admitted) {
							t.Fatalf("report after the last retirement: %+v", rep)
						}
						return
					}
				}
				t.Fatal("watches never all retired")
			})
		}
	}
}

// TestWindowShorterThanIntervalIsNotProbedPastIt: a round that finds a
// watch's window already closed — here because the window is shorter
// than the interval — retires it without probing it, as the round's own
// instant says, and the chain disarms.
func TestWindowShorterThanIntervalIsNotProbedPastIt(t *testing.T) {
	fb := newFakeBackend()
	clk := simclock.NewSim(t0)
	cfg := DefaultConfig()
	cfg.Window = 5 * time.Minute
	f := NewFleet(cfg, clk, fb)
	fb.set("x.com", []string{"ns1.a.net"})
	f.Watch("x.com")
	clk.Advance(cfg.Interval)
	st, _ := f.State("x.com")
	if st.Probes != 1 || !st.Finished {
		t.Fatalf("state after the first round: %d probes, finished=%v; want the admission probe alone, retired", st.Probes, st.Finished)
	}
	if n := clk.Pending(); n != 0 {
		t.Fatalf("%d events pending after the only watch retired", n)
	}
}
