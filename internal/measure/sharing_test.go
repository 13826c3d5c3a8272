package measure

import (
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"darkdns/internal/simclock"
)

// TestSteadyStateRoundAllocsIndependentOfWatchCount: a round over
// unchanged delegations reuses each state's LastNS and the fleet's round
// buffer (due list, names, results), and re-arms with its bound callback
// as a clock event stored by value, so what a round allocates — a result slab
// per ProbeBatch slice, pool goroutines — does not grow with the number
// of watches, whether the backend is a plain Backend behind the adapter,
// speaks ProbeBatch itself, or issues handles, and whether the round is
// one slice or (the -w4 rows: Workers 4, 4·minSlice watches and more)
// four. The batched+apply row is batch-w4 with the legacy probe and apply
// widths set as bench/campaign.go sets them.
func TestSteadyStateRoundAllocsIndependentOfWatchCount(t *testing.T) {
	plain := func(fb *fakeBackend) Backend { return fb } // behind the adapter
	batch := func(fb *fakeBackend) Backend { return &fakeBatchBackend{fakeBackend: fb} }
	handles := func(fb *fakeBackend) Backend { return &handleBackend{fakeBackend: fb} }
	oneSlice := [2]int{64, 512}
	fourSlice := [2]int{fourSliceWatches, 2 * fourSliceWatches}
	configs := map[string]struct {
		backend func(*fakeBackend) Backend
		workers int
		sizes   [2]int
		legacy  int // the legacy probe and apply widths
	}{
		"per-domain":    {plain, 16, oneSlice, 0},
		"batch":         {batch, 16, oneSlice, 0},
		"batch-w4":      {batch, fourSlices, fourSlice, 0},
		"batched+apply": {batch, fourSlices, fourSlice, 4},
		"handles":       {handles, 16, oneSlice, 0},
		"handles-w4":    {handles, fourSlices, fourSlice, 0},
	}
	for name, c := range configs {
		t.Run(name, func(t *testing.T) {
			cfg := legacyWidths(DefaultConfig(), c.legacy, c.legacy)
			cfg.Workers = c.workers
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
			small, large := roundAllocs(c.sizes[0]), roundAllocs(c.sizes[1])
			// Hundreds more probes per round; a per-probe allocation would
			// show as hundreds, scheduling noise as a handful.
			if large > small+16 {
				t.Errorf("round allocations grow with the watch set: %v at %d watches, %v at %d", small, c.sizes[0], large, c.sizes[1])
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

// listenBackend issues notifying handles that cost one allocation each,
// the handle, which keeps its watcher in a field. The i-th name resolved
// is delegated to sets[i%2], answered in the backend's own order.
type listenBackend struct {
	sets     [2][]string
	resolved int
	first    *listenHandle // the first handle issued
}

func (b *listenBackend) AuthoritativeNS(string) ([]string, bool) { return nil, false }
func (b *listenBackend) LookupA(string) []netip.Addr             { return nil }
func (b *listenBackend) LookupAAAA(string) []netip.Addr          { return nil }

func (b *listenBackend) Resolve(string) Handle {
	h := &listenHandle{ns: b.sets[b.resolved%2]}
	if b.first == nil {
		b.first = h
	}
	b.resolved++
	return h
}

type listenHandle struct {
	ns []string
	w  Watcher
}

func (h *listenHandle) Probe(bool) ProbeResult { return ProbeResult{InZone: true, NS: h.ns} }
func (h *listenHandle) Notify(w Watcher)       { h.w = w }

// TestWatchAllocatesStateAndHandle: a watch on a notifying handle costs
// the backend's handle and its share of a chunk of states from the fleet's
// slab, at most 1.05 allocations in all — the state is the handle's
// Watcher, and the admission probe's NS set comes from the fleet's intern
// — averaged over thousands of watches, so the growth of the fleet's maps
// and lists amortises away. Watches on one set share the fleet's sorted
// copy, never the backend's slice; a notification through the handle
// makes the next round read the watch, and one through a copy State
// returned reads nothing.
func TestWatchAllocatesStateAndHandle(t *testing.T) {
	const n = 4096
	b := &listenBackend{sets: [2][]string{{"ns2.a.net", "ns1.a.net"}, {"ns1.b.net", "ns2.b.net"}}}
	names := nDomains(2 * n) // AllocsPerRun makes one warm-up pass
	f, clk := newFleet(b)
	next := names
	if got := testing.AllocsPerRun(1, func() {
		for _, name := range next[:n] {
			f.Watch(name)
		}
		next = next[n:]
	}) / n; got > 1.05 {
		t.Errorf("Watch on a notifying handle allocates %v times, want at most 1.05 (the handle and a share of a state chunk)", got)
	}

	for s, set := range b.sets {
		want := slices.Sorted(slices.Values(set))
		first, _ := f.State(names[s])
		for _, d := range []string{names[s], names[s+2], names[n-1-(n-1-s)%2]} {
			st, _ := f.State(d)
			switch {
			case !slices.Equal(st.FirstNS, want):
				t.Errorf("%s: FirstNS %v, want %v", d, st.FirstNS, want)
			case &st.FirstNS[0] == &set[0]:
				t.Errorf("%s: FirstNS aliases the backend's slice", d)
			case &st.FirstNS[0] != &first.FirstNS[0]:
				t.Errorf("%s: FirstNS is not the fleet's one copy of its set", d)
			}
		}
	}

	reads := func() int64 {
		clk.Advance(10 * time.Minute)
		return f.Report().Reads
	}
	base := reads()
	cp, _ := f.State(names[0])
	cp.AnswerChanged()
	if got := reads(); got != base {
		t.Errorf("a notification through a State copy read %d watches", got-base)
	}
	b.first.w.AnswerChanged()
	if got := reads(); got != base+1 {
		t.Errorf("a notification through the handle read %d watches, want 1", got-base)
	}
}
