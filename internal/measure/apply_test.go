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
// order: every full-width slice blocks at a rendezvous gate until all
// slices of the round have arrived, then the gate releases them one at a
// time in the order the test's permutation dictates. Slice identity is
// the admission index of the slice's first domain. Single-domain batches
// (admission probes) and partial-width rounds bypass the gate, so the
// adversary only engages on the full coalesced rounds it was shaped for.
// Requires ProbeWorkers == slices so every slice has a live goroutine at
// the gate (probeStage runs w slices on w workers).
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
// backend: watch the 40 given domains (scripted alive), take a third
// down at 2 h, advance to 4 h. Returns the observation log and report.
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
// interleaved, one-straggler, and a shard-colliding watch set — the
// delivered observation sequence must be identical to the width-0
// fleet's over a plain per-domain backend.
func TestApplyPermutationAdversarialOrders(t *testing.T) {
	const sliceLen, slices = 5, 8 // 40 domains at ProbeWorkers=8
	perms := map[string][]int{
		"identity":    {0, 1, 2, 3, 4, 5, 6, 7},
		"reverse":     {7, 6, 5, 4, 3, 2, 1, 0},
		"interleaved": {1, 3, 5, 7, 0, 2, 4, 6},
		"straggler":   {1, 2, 3, 4, 5, 6, 7, 0},
	}
	domainSets := map[string][]string{
		"spread":          nDomains(40),
		"shard-colliding": collidingDomains(40),
	}

	for setName, domains := range domainSets {
		// Serial baseline: a plain Backend behind the per-domain adapter,
		// every width 0.
		sb := newFakeBackend()
		sf, sclk := newFleet(sb)
		want, _ := applyScript(sf, sb, sclk, domains)
		if len(want) == 0 {
			t.Fatal("serial baseline produced no observations")
		}

		for permName, perm := range perms {
			for _, aw := range []int{1, 8} {
				name := fmt.Sprintf("%s/%s/apply-%d", setName, permName, aw)
				t.Run(name, func(t *testing.T) {
					b := newPermBackend(sliceLen, perm)
					for i, d := range domains {
						b.idx[d] = i
					}
					clk := simclock.NewSim(t0)
					cfg := DefaultConfig()
					cfg.ProbeWorkers = slices
					cfg.ApplyWorkers = aw
					f := NewFleet(cfg, clk, b)
					got, _ := applyScript(f, b.fakeBackend, clk, domains)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("observation stream diverges from serial (%d vs %d entries)", len(got), len(want))
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
		out[i] = domainN(i)
	}
	return out
}

// collidingDomains returns n domains that all hash to watch shard 0, so
// every concurrent apply contends on a single shard lock.
func collidingDomains(n int) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		d := fmt.Sprintf("c%d.com", i)
		if dnsname.Hash64(d)&(watchShards-1) == 0 {
			out = append(out, d)
		}
	}
	return out
}

// TestApplyWidthCombosDeterministic covers the width cross-products the
// round must be indifferent to: more probe slices than apply workers,
// more apply workers than probe slices, wide applies under the fleet's
// own slice count, and a single apply worker.
func TestApplyWidthCombosDeterministic(t *testing.T) {
	domains := nDomains(40)
	sb := newFakeBackend()
	sf, sclk := newFleet(sb)
	want, _ := applyScript(sf, sb, sclk, domains)

	combos := []struct {
		name   string
		pw, aw int
	}{
		{"probe8-apply2", 8, 2},
		{"probe2-apply8", 2, 8},
		{"per-domain-apply8", 0, 8},
		{"probe8-apply1", 8, 1},
	}
	for _, c := range combos {
		t.Run(c.name, func(t *testing.T) {
			b := &fakeBatchBackend{fakeBackend: newFakeBackend()}
			clk := simclock.NewSim(t0)
			cfg := DefaultConfig()
			cfg.ProbeWorkers = c.pw
			cfg.ApplyWorkers = c.aw
			f := NewFleet(cfg, clk, b)
			got, _ := applyScript(f, b.fakeBackend, clk, domains)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("observation stream diverges from serial (%d vs %d entries)", len(got), len(want))
			}
		})
	}
}

// TestApplySingleWatchRound: a one-domain campaign at apply width 8 runs
// every round as the plain one-slot loop — the same probes and the same
// observable stream as width 0.
func TestApplySingleWatchRound(t *testing.T) {
	sb := newFakeBackend()
	sf, sclk := newFleet(sb)
	slog := obsLog(sf)
	sb.set("solo.com", []string{"ns1.a.net"})
	sf.Watch("solo.com")
	sclk.Advance(2 * time.Hour)

	b := newFakeBackend()
	clk := simclock.NewSim(t0)
	cfg := DefaultConfig()
	cfg.ApplyWorkers = 8
	f := NewFleet(cfg, clk, b)
	plog := obsLog(f)
	b.set("solo.com", []string{"ns1.a.net"})
	f.Watch("solo.com")
	clk.Advance(2 * time.Hour)

	if !reflect.DeepEqual(*slog, *plog) {
		t.Fatalf("single-watch stream diverges: %d vs %d entries", len(*plog), len(*slog))
	}
	if rep := f.Report(); rep.Probes != 13 || len(*plog) != 13 {
		t.Errorf("probes=%d observations=%d, want 13 each (1 admission + 12 rounds)", rep.Probes, len(*plog))
	}
}

// TestObserverSeesOwnDomainApplied pins what an observer may rely on now
// that delivery follows the whole round's applies at every width: inside
// its callback, Fleet.State of the observed domain already counts this
// probe — Probes equals the observation's ordinal for that domain.
func TestObserverSeesOwnDomainApplied(t *testing.T) {
	for _, aw := range []int{0, 1, 8} {
		t.Run(fmt.Sprintf("apply-%d", aw), func(t *testing.T) {
			b := &fakeBatchBackend{fakeBackend: newFakeBackend()}
			clk := simclock.NewSim(t0)
			cfg := DefaultConfig()
			cfg.ApplyWorkers = aw
			f := NewFleet(cfg, clk, b)
			ordinal := map[string]int{}
			f.OnObservation(func(o Observation) {
				ordinal[o.Domain]++
				st, ok := f.State(o.Domain)
				if !ok || st.Probes != ordinal[o.Domain] {
					t.Errorf("%s observation %d: State.Probes = %d (found=%v)", o.Domain, ordinal[o.Domain], st.Probes, ok)
				}
			})
			for _, d := range nDomains(40) {
				b.set(d, []string{"ns1.a.net"})
				f.Watch(d)
			}
			clk.Advance(2 * time.Hour)
			if len(ordinal) != 40 || ordinal[domainN(0)] != 13 {
				t.Fatalf("observed %d domains, %d probes of the first; want 40 and 13", len(ordinal), ordinal[domainN(0)])
			}
		})
	}
}

// TestStopWhenDeadRacingStragglerApply: retirement happens inside apply
// (Finished + active decrement), eight applies wide, in a round whose
// first probe slice the straggler permutation lands last. Final states
// and the observation stream must match the width-0 fleet exactly.
func TestStopWhenDeadRacingStragglerApply(t *testing.T) {
	domains := nDomains(40)
	script := func(f *Fleet, b *fakeBackend, clk *simclock.Sim) ([]string, []DomainState) {
		log := obsLog(f)
		for _, d := range domains {
			b.set(d, []string{"ns1.a.net"})
			f.Watch(d)
		}
		clk.Advance(2 * time.Hour)
		for i := 0; i < len(domains); i += 3 {
			b.set(domains[i], nil)
		}
		clk.Advance(2 * time.Hour)
		return *log, f.States()
	}

	scfg := DefaultConfig()
	scfg.StopWhenDead = true
	sb := newFakeBackend()
	sf := NewFleet(scfg, simclock.NewSim(t0), sb)
	wantLog, wantStates := script(sf, sb, sf.clk.(*simclock.Sim))

	b := newPermBackend(5, []int{1, 2, 3, 4, 5, 6, 7, 0})
	for i, d := range domains {
		b.idx[d] = i
	}
	cfg := DefaultConfig()
	cfg.StopWhenDead = true
	cfg.ProbeWorkers = 8
	cfg.ApplyWorkers = 8
	f := NewFleet(cfg, simclock.NewSim(t0), b)
	gotLog, gotStates := script(f, b.fakeBackend, f.clk.(*simclock.Sim))

	if !reflect.DeepEqual(wantLog, gotLog) {
		t.Errorf("observation stream diverges (%d vs %d entries)", len(gotLog), len(wantLog))
	}
	if !reflect.DeepEqual(wantStates, gotStates) {
		t.Error("final domain states diverge from serial path")
	}
	if b.gated.Load() == 0 {
		t.Fatal("adversarial gate never engaged")
	}
}

// --- satellite 1: empty-round guard -----------------------------------

// TestProbeBatchedEmptyRoundGuard: a round with nothing due must return
// before the slice arithmetic and without a backend call, at every width
// (regression: the batched path computed i * 0 / 0 and panicked).
func TestProbeBatchedEmptyRoundGuard(t *testing.T) {
	for _, pw := range []int{0, 8} {
		for _, aw := range []int{0, 8} {
			b := &fakeBatchBackend{fakeBackend: newFakeBackend()}
			cfg := DefaultConfig()
			cfg.ProbeWorkers, cfg.ApplyWorkers = pw, aw
			f := NewFleet(cfg, simclock.NewSim(t0), b)
			f.probeRound(roundBuf{}, t0) // must not panic
			if b.batches.Load() != 0 {
				t.Errorf("probe=%d apply=%d: empty round called ProbeBatch", pw, aw)
			}
		}
	}
}

// TestActiveSetEmptiesMidCampaign drives the end-to-end shape of the
// regression: a StopWhenDead campaign whose whole watch set dies at once
// leaves the next round with zero due targets, and the fleet must drain
// cleanly through it at every engine width.
func TestActiveSetEmptiesMidCampaign(t *testing.T) {
	for _, aw := range []int{0, 8} {
		t.Run(fmt.Sprintf("apply-%d", aw), func(t *testing.T) {
			b := &fakeBatchBackend{fakeBackend: newFakeBackend()}
			clk := simclock.NewSim(t0)
			cfg := DefaultConfig()
			cfg.ProbeWorkers = 8
			cfg.ApplyWorkers = aw
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

// TestApplyEngineShardContentionRaceHammer is the -race workout: a watch
// set that all hashes to one shard (maximum apply-lock contention),
// admitted from concurrent goroutines, probed and applied eight wide
// while readers hammer State/States/Report. Correctness here is "the race
// detector stays quiet and every watch was probed".
func TestApplyEngineShardContentionRaceHammer(t *testing.T) {
	domains := collidingDomains(64)
	b := &fakeBatchBackend{fakeBackend: newFakeBackend()}
	clk := simclock.NewSim(t0)
	cfg := DefaultConfig()
	cfg.ProbeWorkers = 8
	cfg.ApplyWorkers = 8
	f := NewFleet(cfg, clk, b)
	for _, d := range domains {
		b.set(d, []string{"ns1.a.net"}, netip.MustParseAddr("192.0.2.1"))
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * 16; i < (g+1)*16; i++ {
				f.Watch(domains[i])
			}
		}(g)
	}
	wg.Wait()

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
	clk.Advance(3 * time.Hour)
	close(stop)
	readers.Wait()

	rep := f.Report()
	if want := int64(64 * 19); rep.Watched != 64 || rep.Probes != want {
		t.Fatalf("watched=%d probes=%d, want 64 and %d (1 admission + 18 rounds each)", rep.Watched, rep.Probes, want)
	}
}
