package measure

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"darkdns/internal/simclock"
)

// TestSteadyStateRoundAllocsIndependentOfWatchCount: a round over
// unchanged delegations reuses each state's LastNS and the fleet's round
// buffer (due list, names, results), and re-arms with its bound callback
// on a recycled clock event, so what a round allocates — a result slab
// per ProbeBatch slice, pool goroutines — does not grow with the number
// of watches, whether the backend is a plain Backend behind the adapter,
// speaks ProbeBatch itself, or issues handles.
func TestSteadyStateRoundAllocsIndependentOfWatchCount(t *testing.T) {
	plain := func(fb *fakeBackend) Backend { return fb } // behind the adapter
	batch := func(fb *fakeBackend) Backend { return &fakeBatchBackend{fakeBackend: fb} }
	handles := func(fb *fakeBackend) Backend { return &handleBackend{fakeBackend: fb} }
	configs := map[string]struct {
		backend func(*fakeBackend) Backend
		tune    func(*Config)
	}{
		"per-domain":    {plain, func(*Config) {}},
		"batch":         {batch, func(*Config) {}},
		"batch-w4":      {batch, func(c *Config) { c.ProbeWorkers = 4 }},
		"batched+apply": {batch, func(c *Config) { c.ProbeWorkers, c.ApplyWorkers = 4, 4 }},
		"handles":       {handles, func(*Config) {}},
		"handles+apply": {handles, func(c *Config) { c.ProbeWorkers, c.ApplyWorkers = 4, 4 }},
	}
	for name, c := range configs {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.tune(&cfg)
			roundAllocs := func(n int) float64 {
				fb := newFakeBackend()
				clk := simclock.NewSim(t0)
				f := NewFleet(cfg, clk, c.backend(fb))
				for _, d := range nDomains(n) {
					fb.set(d, []string{"ns1.a.net", "ns2.a.net"}, netip.MustParseAddr("192.0.2.1"))
					f.Watch(d)
				}
				// The first round sizes the buffer; a day of rounds visits
				// every clock wheel slot a 10-minute cadence lands on.
				clk.Advance(24 * time.Hour)
				allocs := testing.AllocsPerRun(20, func() { clk.Advance(10 * time.Minute) })
				if got := f.Report().Probes; got < int64(20*n) {
					t.Fatalf("rounds did not probe: %d probes over %d watches", got, n)
				}
				return allocs
			}
			small, large := roundAllocs(64), roundAllocs(512)
			// 448 more probes per round; a per-probe allocation would show
			// as hundreds, scheduling noise as a handful.
			if large > small+16 {
				t.Errorf("round allocations grow with the watch set: %v at 64 watches, %v at 512", small, large)
			}
			// A one-slice round is read on the round goroutine into the
			// reused buffer, so it allocates the backend's result slab and
			// nothing else: one for a ProbeBatch backend or a plain Backend
			// behind the adapter, none through handles, which need no slab.
			if want, ok := map[string]float64{"per-domain": 1, "batch": 1, "handles": 0}[name]; ok && small != want {
				t.Errorf("steady one-slice round allocates %v times, want %v", small, want)
			}
		})
	}
}

// TestUnsortedNSAnswerNotMutated: a backend may answer NS in any order
// and keeps ownership of its slice — observations and state carry a
// sorted copy.
func TestUnsortedNSAnswerNotMutated(t *testing.T) {
	b := newFakeBackend()
	answer := []string{"ns2.b.net", "ns1.a.net"}
	b.set("x.com", answer)
	f, clk := newFleet(b)
	var got [][]string
	f.OnObservation(func(o Observation) { got = append(got, o.NS) })
	f.Watch("x.com")
	clk.Advance(30 * time.Minute)

	sorted := []string{"ns1.a.net", "ns2.b.net"}
	if len(got) != 4 {
		t.Fatalf("%d observations, want 4", len(got))
	}
	for i, ns := range got {
		if !reflect.DeepEqual(ns, sorted) {
			t.Errorf("observation %d NS = %v, want %v", i, ns, sorted)
		}
	}
	if !reflect.DeepEqual(answer, []string{"ns2.b.net", "ns1.a.net"}) {
		t.Errorf("backend's answer was reordered: %v", answer)
	}
	st, _ := f.State("x.com")
	if !reflect.DeepEqual(st.FirstNS, sorted) || !reflect.DeepEqual(st.LastNS, sorted) || st.NSChanged {
		t.Errorf("state: FirstNS=%v LastNS=%v NSChanged=%v", st.FirstNS, st.LastNS, st.NSChanged)
	}
}

// TestSortedNSAnswerSharedWithinFleetOnly: an already-sorted, unchanged
// answer is the steady state — every observation shares the state's
// LastNS, never the backend's slice, so a backend that later rewrites its
// slice in place cannot reach into delivered observations.
func TestSortedNSAnswerSharedWithinFleetOnly(t *testing.T) {
	b := newFakeBackend()
	answer := []string{"ns1.a.net", "ns2.a.net"}
	b.set("x.com", answer)
	f, clk := newFleet(b)
	var got [][]string
	f.OnObservation(func(o Observation) { got = append(got, o.NS) })
	f.Watch("x.com")
	clk.Advance(20 * time.Minute)
	if len(got) != 3 {
		t.Fatalf("%d observations, want 3", len(got))
	}
	for i, ns := range got {
		if &ns[0] == &answer[0] {
			t.Errorf("observation %d aliases the backend's slice", i)
		}
		if &ns[0] != &got[0][0] {
			t.Errorf("observation %d did not reuse the fleet's copy", i)
		}
	}

	answer[0] = "ns0.evil.net" // in place: same slice, new content
	clk.Advance(10 * time.Minute)
	if want := []string{"ns1.a.net", "ns2.a.net"}; !reflect.DeepEqual(got[0], want) {
		t.Errorf("earlier observation changed with the backend: %v", got[0])
	}
	if want := []string{"ns0.evil.net", "ns2.a.net"}; !reflect.DeepEqual(got[3], want) {
		t.Errorf("changed delegation observed as %v, want %v", got[3], want)
	}
	st, _ := f.State("x.com")
	if !st.NSChanged || st.FirstNS[0] != "ns1.a.net" || st.LastNS[0] != "ns0.evil.net" {
		t.Errorf("state after change: %+v", st)
	}
}
