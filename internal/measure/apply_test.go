package measure

import (
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darkdns/internal/dnsname"
	"darkdns/internal/simclock"
)

// --- permutation-injecting backend ------------------------------------

// permBatchBackend completes a round's probe slices in an adversarial
// order: every full-length slice blocks at a rendezvous gate until all
// slices of the round have arrived, then the gate releases them one at a
// time in the order the test's permutation dictates. Slice identity is
// the admission index of the slice's first domain. Single-domain batches
// (admission probes) and rounds cut into other lengths bypass the gate,
// so the adversary only engages on the full coalesced rounds it was
// shaped for. Requires the fleet to cut each full round into exactly
// len(perm) slices of sliceLen, each on its own goroutine: Workers =
// len(perm) and sliceLen = minSlice (see fourSliceConfig).
type permBatchBackend struct {
	*fakeBackend
	sliceLen int
	slices   int
	rank     map[int]int    // slice id → release rank per the permutation
	idx      map[string]int // domain → admission index

	mu       sync.Mutex
	cond     *sync.Cond
	arrived  int
	released int
	gated    atomic.Int64 // slices that went through the gate
}

func newPermBackend(sliceLen int, perm []int) *permBatchBackend {
	b := &permBatchBackend{
		fakeBackend: newFakeBackend(),
		sliceLen:    sliceLen,
		slices:      len(perm),
		rank:        make(map[int]int, len(perm)),
		idx:         make(map[string]int),
	}
	for r, s := range perm {
		b.rank[s] = r
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *permBatchBackend) ProbeBatch(domains []string, mail bool) []ProbeResult {
	out := make([]ProbeResult, len(domains))
	for i, d := range domains {
		pr := &out[i]
		pr.NS, pr.InZone = b.AuthoritativeNS(d)
		if pr.InZone {
			pr.V4 = b.LookupA(d)
			pr.V6 = b.LookupAAAA(d)
		}
	}
	if len(domains) == b.sliceLen {
		b.gate(b.idx[domains[0]] / b.sliceLen)
	}
	return out
}

// gate is the rendezvous: block until every slice of the round arrived,
// then return in permutation-rank order. The last slice out resets the
// gate for the next round.
func (b *permBatchBackend) gate(slice int) {
	b.gated.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.arrived++
	b.cond.Broadcast()
	for b.arrived < b.slices || b.released != b.rank[slice] {
		b.cond.Wait()
	}
	b.released++
	if b.released == b.slices {
		b.arrived, b.released = 0, 0
	}
	b.cond.Broadcast()
}

// fourSlices is the fleet shape of the tests that need concurrent probe
// slices: a full round of fourSliceWatches watches at Workers 4 is cut
// into four slices of minSlice.
const (
	fourSlices       = 4
	fourSliceWatches = fourSlices * minSlice
)

func fourSliceConfig(stopWhenDead bool) Config {
	cfg := DefaultConfig()
	cfg.Workers = fourSlices
	cfg.StopWhenDead = stopWhenDead
	return cfg
}

// legacyWidths sets the Engines widths the fleet no longer reads — the
// probe slice count and the apply width, which bench/campaign.go still
// sets. workpool.Engines promises the same observations at any value of
// any field, so the subtests named probe-N or apply-N hold every setting
// to one outcome.
func legacyWidths(cfg Config, probe, apply int) Config {
	cfg.ProbeWorkers, cfg.ApplyWorkers = probe, apply
	return cfg
}

// gatedFleet is a fleet over a permutation backend for domains.
func gatedFleet(cfg Config, domains []string, perm []int) (*Fleet, *permBatchBackend, *simclock.Sim) {
	b := newPermBackend(minSlice, perm)
	for i, d := range domains {
		b.idx[d] = i
	}
	clk := simclock.NewSim(t0)
	return NewFleet(cfg, clk, b), b, clk
}

// obsLog registers a canonical observation log on f.
func obsLog(f *Fleet) *[]string {
	var log []string
	f.OnObservation(func(o Observation) {
		log = append(log, fmt.Sprintf("%s|%s|%d|%v|%v|%v",
			o.At.Format(time.RFC3339), o.Domain, o.Worker, o.InZone, o.NS, o.V4))
	})
	return &log
}

// applyScript drives the canonical apply-stage campaign shape against
// backend: watch the given domains (scripted alive), take a third down
// at 2 h, advance to 4 h. Returns the observation log and report.
func applyScript(f *Fleet, b *fakeBackend, clk *simclock.Sim, domains []string) ([]string, FleetReport) {
	log := obsLog(f)
	for _, d := range domains {
		b.set(d, []string{"ns1.a.net"}, netip.MustParseAddr("192.0.2.1"))
		f.Watch(d)
	}
	clk.Advance(2 * time.Hour)
	for i := 0; i < len(domains); i += 3 {
		b.set(domains[i], nil) // takedown wave
	}
	clk.Advance(2 * time.Hour)
	return *log, f.Report()
}

// TestApplyPermutationAdversarialOrders is the apply stage's property
// test: for every adversarial probe-completion order — reverse,
// interleaved, one-straggler — over two watch sets, the delivered
// observation sequence must be identical to the same fleet's over a plain
// per-domain backend, whose slices finish in whatever order they happen
// to, at any legacy apply width.
func TestApplyPermutationAdversarialOrders(t *testing.T) {
	perms := map[string][]int{
		"identity":    {0, 1, 2, 3},
		"reverse":     {3, 2, 1, 0},
		"interleaved": {1, 3, 0, 2},
		"straggler":   {1, 2, 3, 0},
	}
	domainSets := map[string][]string{
		"spread":          nDomains(fourSliceWatches),
		"shard-colliding": collidingDomains(fourSliceWatches),
	}

	for setName, domains := range domainSets {
		sb := newFakeBackend()
		sclk := simclock.NewSim(t0)
		want, _ := applyScript(NewFleet(fourSliceConfig(false), sclk, sb), sb, sclk, domains)
		if len(want) == 0 {
			t.Fatal("ungated reference produced no observations")
		}

		for permName, perm := range perms {
			for _, aw := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/apply-%d", setName, permName, aw), func(t *testing.T) {
					f, b, clk := gatedFleet(legacyWidths(fourSliceConfig(false), 0, aw), domains, perm)
					got, _ := applyScript(f, b.fakeBackend, clk, domains)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("observation stream diverges from the ungated fleet (%d vs %d entries)", len(got), len(want))
					}
					if b.gated.Load() == 0 {
						t.Fatal("adversarial gate never engaged")
					}
				})
			}
		}
	}
}

// nDomains returns n distinct scripted domains in admission order.
func nDomains(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("n%05d.com", i)
	}
	return out
}

// collidingDomains returns n domains whose FNV-1a hashes share their low
// five bits: the set that put every watch on one stripe of the fleet's
// former 32-stripe registry. On one lock it is a second name set, with
// hashes as clustered as names can make them.
func collidingDomains(n int) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		d := fmt.Sprintf("c%d.com", i)
		if dnsname.Hash64(d)&31 == 0 {
			out = append(out, d)
		}
	}
	return out
}

// TestApplySingleWatchRound: a one-domain campaign runs every round as a
// one-slot round — probed, applied and delivered once per interval.
func TestApplySingleWatchRound(t *testing.T) {
	b := newFakeBackend()
	f, clk := newFleet(b)
	log := obsLog(f)
	b.set("solo.com", []string{"ns1.a.net"})
	f.Watch("solo.com")
	clk.Advance(2 * time.Hour)

	if rep := f.Report(); rep.Probes != 13 || len(*log) != 13 || rep.Rounds != 12 || rep.MaxRound != 1 {
		t.Errorf("probes=%d observations=%d rounds=%d maxRound=%d, want 13, 13 (1 admission + 12 rounds), 12 and 1",
			rep.Probes, len(*log), rep.Rounds, rep.MaxRound)
	}
}

// TestObserverSeesOwnDomainApplied pins what an observer may rely on now
// that delivery follows the whole round's applies: inside its callback,
// Fleet.State of the observed domain already counts this probe — Probes
// equals the observation's ordinal for that domain — and calling it does
// not deadlock, because observers run with the fleet lock released.
func TestObserverSeesOwnDomainApplied(t *testing.T) {
	for _, aw := range []int{0, 1, 8} {
		t.Run(fmt.Sprintf("apply-%d", aw), func(t *testing.T) {
			b := &fakeBatchBackend{fakeBackend: newFakeBackend()}
			clk := simclock.NewSim(t0)
			f := NewFleet(legacyWidths(fourSliceConfig(false), 0, aw), clk, b)
			ordinal := map[string]int{}
			f.OnObservation(func(o Observation) {
				ordinal[o.Domain]++
				st, ok := f.State(o.Domain)
				if !ok || st.Probes != ordinal[o.Domain] {
					t.Errorf("%s observation %d: State.Probes = %d (found=%v)", o.Domain, ordinal[o.Domain], st.Probes, ok)
				}
			})
			domains := nDomains(fourSliceWatches)
			for _, d := range domains {
				b.set(d, []string{"ns1.a.net"})
				f.Watch(d)
			}
			clk.Advance(2 * time.Hour)
			if len(ordinal) != len(domains) || ordinal[domains[0]] != 13 {
				t.Fatalf("observed %d domains, %d probes of the first; want %d and 13", len(ordinal), ordinal[domains[0]], len(domains))
			}
			if b.maxBatch.Load() != minSlice {
				t.Fatalf("widest batch %d: rounds were not cut into %d slices", b.maxBatch.Load(), fourSlices)
			}
		})
	}
}

// TestStopWhenDeadRacingStragglerApply: retirement happens inside apply
// (Finished + active decrement), in a round whose first probe slice the
// straggler permutation lands last. Final states and the observation
// stream must match the ungated fleet exactly.
func TestStopWhenDeadRacingStragglerApply(t *testing.T) {
	domains := nDomains(fourSliceWatches)
	script := func(f *Fleet, b *fakeBackend, clk *simclock.Sim) ([]string, []DomainState) {
		log, _ := applyScript(f, b, clk, domains)
		return log, f.States()
	}

	sb := newFakeBackend()
	sf := NewFleet(fourSliceConfig(true), simclock.NewSim(t0), sb)
	wantLog, wantStates := script(sf, sb, sf.clk.(*simclock.Sim))

	f, b, clk := gatedFleet(fourSliceConfig(true), domains, []int{1, 2, 3, 0})
	gotLog, gotStates := script(f, b.fakeBackend, clk)

	if !reflect.DeepEqual(wantLog, gotLog) {
		t.Errorf("observation stream diverges (%d vs %d entries)", len(gotLog), len(wantLog))
	}
	if !reflect.DeepEqual(wantStates, gotStates) {
		t.Error("final domain states diverge from the ungated fleet")
	}
	if b.gated.Load() == 0 {
		t.Fatal("adversarial gate never engaged")
	}
}

// --- satellite 1: empty-round guard -----------------------------------

// TestProbeBatchedEmptyRoundGuard: a round with nothing due must return
// before the slice arithmetic and without a backend call (regression: the
// batched path computed i * 0 / 0 and panicked).
func TestProbeBatchedEmptyRoundGuard(t *testing.T) {
	b := &fakeBatchBackend{fakeBackend: newFakeBackend()}
	f := NewFleet(DefaultConfig(), simclock.NewSim(t0), b)
	f.probeRound(roundBuf{}, t0) // must not panic
	if b.batches.Load() != 0 {
		t.Error("empty round called ProbeBatch")
	}
}

// TestActiveSetEmptiesMidCampaign drives the end-to-end shape of the
// regression: a StopWhenDead campaign whose whole watch set dies at once
// leaves the next round with zero due targets, and the fleet must drain
// cleanly through it, at any legacy apply width.
func TestActiveSetEmptiesMidCampaign(t *testing.T) {
	for _, aw := range []int{0, 8} {
		t.Run(fmt.Sprintf("apply-%d", aw), func(t *testing.T) {
			b := &fakeBatchBackend{fakeBackend: newFakeBackend()}
			clk := simclock.NewSim(t0)
			cfg := legacyWidths(DefaultConfig(), 8, aw)
			cfg.StopWhenDead = true
			f := NewFleet(cfg, clk, b)
			for _, d := range nDomains(8) {
				b.set(d, []string{"ns1.a.net"})
				f.Watch(d)
			}
			clk.Advance(time.Hour)
			for _, d := range nDomains(8) {
				b.set(d, nil) // everything dies between rounds
			}
			clk.Advance(47 * time.Hour) // must not panic on the emptied rounds
			rep := f.Report()
			if rep.Finished != 8 || rep.Died != 8 {
				t.Errorf("finished=%d died=%d, want 8 each", rep.Finished, rep.Died)
			}
			if clk.Pending() != 0 {
				t.Errorf("clock not drained: %d events pending", clk.Pending())
			}
		})
	}
}

// --- race hammer -------------------------------------------------------

// TestApplyEngineShardContentionRaceHammer is the -race workout for the
// fleet's one lock: while readers hammer State/States/Report, half the
// watches are admitted from concurrent goroutines, then the other half
// while another goroutine drains the clock — Watch racing rounds whose
// applies take the same lock — and full four-slice rounds follow.
// Correctness here is "the race detector stays quiet and every probe was
// applied and delivered once".
func TestApplyEngineShardContentionRaceHammer(t *testing.T) {
	domains := nDomains(fourSliceWatches)
	b := &fakeBatchBackend{fakeBackend: newFakeBackend()}
	clk := simclock.NewSim(t0)
	f := NewFleet(fourSliceConfig(false), clk, b)
	for _, d := range domains {
		b.set(d, []string{"ns1.a.net"}, netip.MustParseAddr("192.0.2.1"))
	}
	var delivered atomic.Int64
	f.OnObservation(func(Observation) { delivered.Add(1) })

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f.States()
					f.Report()
					f.State(domains[0])
				}
			}
		}()
	}
	const admitters = 4
	admit := func(part []string, alongside func()) {
		var wg sync.WaitGroup
		for g := 0; g < admitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for _, d := range part[g*len(part)/admitters : (g+1)*len(part)/admitters] {
					f.Watch(d)
				}
			}(g)
		}
		alongside()
		wg.Wait()
	}
	half := len(domains) / 2
	admit(domains[:half], func() {})
	admit(domains[half:], func() { clk.Advance(time.Hour) })
	clk.Advance(2 * time.Hour)
	close(stop)
	readers.Wait()

	rep := f.Report()
	if rep.Watched != len(domains) || rep.MaxRound != len(domains) || rep.Probes != delivered.Load() {
		t.Fatalf("watched=%d maxRound=%d probes=%d delivered=%d, want %d, %d and probes = delivered",
			rep.Watched, rep.MaxRound, rep.Probes, delivered.Load(), len(domains), len(domains))
	}
	for i, st := range f.States() {
		// Admitted at t0, the first half saw the admission probe and all 18
		// rounds; the rest joined mid-drain and saw at least the last 12.
		if lo, hi := 13, 19; st.Probes < lo || st.Probes > hi || (st.Domain < domains[half] && st.Probes != hi) {
			t.Fatalf("state %d %s: %d probes", i, st.Domain, st.Probes)
		}
	}
}
