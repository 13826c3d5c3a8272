// Root benchmark harness: end-to-end campaign, pipeline-ingest, world,
// snapshot, sweep, fleet and feed benchmarks. The per-experiment
// benchmarks (DESIGN.md §4 experiment index E1–E12, X1–X2) live in
// internal/analysis next to the experiments, and the ablation benches
// DESIGN.md §5 calls out live next to their packages (zoneset: streaming
// vs materialized diff; stream: batch vs per-message).
//
// Run with:
//
//	go test -bench=. -benchmem
package darkdns

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darkdns/internal/analysis"
	"darkdns/internal/certstream"
	"darkdns/internal/core"
	"darkdns/internal/ct"
	"darkdns/internal/czds"
	"darkdns/internal/dnsname"
	"darkdns/internal/feed"
	"darkdns/internal/measure"
	"darkdns/internal/psl"
	"darkdns/internal/simclock"
	"darkdns/internal/stream"
	"darkdns/internal/worldsim"
)

// BenchmarkFullCampaign measures the complete simulation + pipeline for a
// small world: the end-to-end cost of regenerating the entire evaluation.
func BenchmarkFullCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := analysis.Run(analysis.RunConfig{Seed: int64(i + 1), Scale: 0.0005, Weeks: 2, WatchSampleRate: 1.0})
		if res.Pipeline.Len() == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// benchPipeline assembles an ingest-only pipeline (no RDAP delay, no
// fleet, no feed) plus a cyclic corpus of pre-built events. The corpus is
// larger than the pipeline's shard count so steady-state iterations
// spread across every stripe: after the first cycle admits each name,
// every further event exercises the full screen path (PSL extraction,
// name hygiene, duplicate probe, zone filter).
func benchPipeline() (*core.Pipeline, []certstream.Event) {
	clk := simclock.NewSim(time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC))
	zones := czds.New()
	cfg := core.DefaultConfig(clk.Now(), clk.Now().Add(91*24*time.Hour))
	cfg.RDAPDelay = nil
	p := core.New(cfg, clk, psl.Default(), zones, nullQuerier{}, nil, nil, 1)
	evs := make([]certstream.Event, 512)
	for i := range evs {
		evs[i] = certstream.Event{
			Seen: clk.Now(), Log: "bench",
			Entry: ct.Entry{Kind: ct.PreCertificate, CN: "www." + benchName(i) + ".shop"},
		}
	}
	return p, evs
}

// BenchmarkPipelineIngest measures step 1 throughput: certstream events
// through PSL extraction and the zone filter, one at a time on one
// goroutine — the baseline BenchmarkPipelineIngestParallel is compared
// against.
func BenchmarkPipelineIngest(b *testing.B) {
	p, evs := benchPipeline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.HandleEvent(evs[i%len(evs)])
	}
}

// BenchmarkPipelineIngestParallel measures concurrent per-event ingest:
// GOMAXPROCS goroutines call HandleEvent simultaneously against the
// sharded candidate store and the lock-free zone view.
func BenchmarkPipelineIngestParallel(b *testing.B) {
	p, evs := benchPipeline()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p.HandleEvent(evs[i%len(evs)])
			i++
		}
	})
}

// benchSimTimeline loads a Sim with n events spread over 1000 distinct
// instants (heavy same-timestamp collision, the group drain's shape),
// each carrying a small slab of CPU work.
func benchSimTimeline(s *simclock.Sim, n int, sink *[1]uint64) {
	for i := 0; i < n; i++ {
		i := i
		s.After(time.Duration(i%1000)*time.Second, func() {
			h := uint64(i)
			for k := 0; k < 512; k++ {
				h = (h ^ uint64(k)) * 0x100000001b3
			}
			if h == 0 {
				sink[0]++ // defeats dead-code elimination; never taken
			}
		})
	}
}

// BenchmarkSimSerialRun is the event-loop baseline: the timer-wheel
// engine's one drain. One op = one event.
func BenchmarkSimSerialRun(b *testing.B) {
	var sink [1]uint64
	start := time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)
	s := simclock.NewSim(start)
	benchSimTimeline(s, b.N, &sink)
	b.ResetTimer()
	if s.RunUntil(start.Add(1000*time.Second)) != b.N {
		b.Fatal("lost events")
	}
}

// benchWorldConfig is a paper-shape (full multi-TLD plan mix) world
// sized so one build lays out ≈10^5 registrations — big enough that the
// compile phase dominates, small enough for bench smoke runs.
func benchWorldConfig(seed int64, buildWorkers int) worldsim.Config {
	cfg := worldsim.DefaultConfig(seed, 0.02)
	cfg.Weeks = 4
	cfg.BuildWorkers = buildWorkers
	return cfg
}

// benchWorldBuild measures the two-phase world builder end to end
// (compile fan-out + serial commit). One op = one world; the domains/s
// metric is what the comparison tracks. On a 2-core box
// BenchmarkWorldBuildParallel (2 workers) lays out 1.43–1.46× the domains
// per second of BenchmarkWorldBuildSerial: only the compile fans out.
func benchWorldBuild(b *testing.B, buildWorkers int) {
	b.ReportAllocs()
	domains := 0
	for i := 0; i < b.N; i++ {
		w := worldsim.New(benchWorldConfig(int64(i+1), buildWorkers))
		domains += w.Domains.Len()
		w.Stop()
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(domains)/secs, "domains/s")
	}
}

// BenchmarkWorldBuildSerial is the baseline: every per-TLD layout
// compiled and committed on the calling goroutine.
func BenchmarkWorldBuildSerial(b *testing.B) { benchWorldBuild(b, 0) }

// BenchmarkWorldBuildParallel compiles per-TLD layouts on a
// machine-width worker pool; the commit is serial either way, so the
// pair isolates the compile fan-out.
func BenchmarkWorldBuildParallel(b *testing.B) {
	benchWorldBuild(b, runtime.GOMAXPROCS(0))
}

// benchLayoutSet compiles the benchmark world's layout set once per
// process; both snapshot benches encode/decode the same set so their
// domains/s metrics share a denominator with the WorldBuild pair.
var (
	benchLayoutOnce sync.Once
	benchLayoutSet  *worldsim.LayoutSet
)

func sharedLayoutSet(b *testing.B) *worldsim.LayoutSet {
	b.Helper()
	benchLayoutOnce.Do(func() {
		benchLayoutSet = worldsim.CompileLayoutSet(benchWorldConfig(1, runtime.GOMAXPROCS(0)))
	})
	return benchLayoutSet
}

// BenchmarkSnapshotSave measures the columnar snapshot encoder: one op
// serializes the compiled benchmark world. The layout set is compiled
// once outside the timer; domains/s counts registrations encoded. Each
// table's typed columns are filled per layout and keep their storage,
// the writer reuses its chunk and dictionary scratch, and the table
// bodies fill the 1 MiB blocks the previous save left, so allocs/op
// counts tables and row groups, not rows (about 1 760 for the ≈10⁵-domain
// world; TestSnapshotSaveAllocations holds the per-row share near zero)
// and B/op, 3.3 MB, is column and writer scratch, not the 7.8 MB it
// writes.
func BenchmarkSnapshotSave(b *testing.B) {
	ls := sharedLayoutSet(b)
	runtime.GC() // setup garbage must not bill the first iteration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := worldsim.SaveSnapshot(io.Discard, ls); err != nil {
			b.Fatal(err)
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(ls.Domains()*b.N)/secs, "domains/s")
	}
}

// BenchmarkSnapshotLoad measures the decode path that replaces the
// compile fan-out on a snapshot hit: one op deserializes the benchmark
// world from memory. On a 2-core box it decodes 3.3× the domains/s of
// BenchmarkWorldBuildSerial (2.07× with the version-1 format), which is
// what makes a sweep's compile-once worlds pay.
func BenchmarkSnapshotLoad(b *testing.B) {
	ls := sharedLayoutSet(b)
	var buf bytes.Buffer
	if err := worldsim.SaveSnapshot(&buf, ls); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	runtime.GC() // setup garbage must not bill the first iteration
	b.ReportAllocs()
	b.ResetTimer()
	domains := 0
	for i := 0; i < b.N; i++ {
		got, err := worldsim.LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		domains += got.Domains()
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(domains)/secs, "domains/s")
	}
}

// BenchmarkSweepGrid runs a small seed × policy grid through the sweep
// engine: 2 distinct worlds, 4 cells, each campaign replayed from the
// shared snapshots. One op = one full grid (benchtime=1x friendly — the
// CI smoke run exercises compile-once plus the snapshot fan-out path).
func BenchmarkSweepGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := analysis.Sweep(analysis.SweepConfig{
			Seeds: []int64{1, 2}, Scales: []float64{0.0005}, Weeks: 2,
			Policies: []analysis.SweepPolicy{
				{Name: "paper", ProbeCadence: 10 * time.Minute},
				{Name: "rapid", ProbeCadence: 2 * time.Minute},
			},
			Base:        analysis.RunConfig{WatchSampleRate: 1.0},
			SnapshotDir: b.TempDir(),
			Workers:     2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Cells) != 4 || out.DistinctWorlds != 2 {
			b.Fatalf("grid shape: %d cells, %d worlds", len(out.Cells), out.DistinctWorlds)
		}
	}
}

// staticProbeBackend answers every fleet probe with a fixed delegation.
type staticProbeBackend struct{}

func (staticProbeBackend) AuthoritativeNS(string) ([]string, bool) {
	return []string{"ns1.bench.net"}, true
}
func (staticProbeBackend) LookupA(string) []netip.Addr    { return nil }
func (staticProbeBackend) LookupAAAA(string) []netip.Addr { return nil }

// BenchmarkFleetRoundCoalesced measures the round-coalesced measurement
// fleet: 512 watched domains, one op = one probe executed. The
// events/probe metric is the coalescing acceptance ratio — the per-probe
// scheduler's cost was 1.0 by construction, so ≤0.1 is the ≥10× bar.
func BenchmarkFleetRoundCoalesced(b *testing.B) {
	clk := simclock.NewSim(time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC))
	fleet := measure.NewFleet(measure.DefaultConfig(), clk, staticProbeBackend{})
	// Observations deliver synchronously on the advancing goroutine, so
	// a plain counter tracks probes in O(1) — Report() walks every state
	// ever watched and would skew ns/op with benchtime.
	var probes int64
	fleet.OnObservation(func(measure.Observation) { probes++ })
	const domains = 512
	for i := 0; i < domains; i++ {
		fleet.Watch(benchName(i) + ".shop")
	}
	b.ResetTimer()
	gen := 0
	for probes < int64(b.N) {
		if clk.Pending() == 0 {
			// Every 48-hour window closed: watch a fresh generation so
			// long benchtimes keep measuring steady-state rounds.
			gen++
			for i := 0; i < domains; i++ {
				fleet.Watch(fmt.Sprintf("g%d-%s.shop", gen, benchName(i)))
			}
		}
		clk.Advance(10 * time.Minute)
	}
	b.StopTimer()
	if probes > 0 {
		b.ReportMetric(float64(clk.Stats().Scheduled)/float64(probes), "events/probe")
	}
}

// benchProbeBackend answers every probe with a fixed delegation after a
// small slab of CPU work per domain (wire pack/unpack and answer
// parsing in a network deployment), so BenchmarkProbeBatch measures
// probe work rather than map-lookup noise.
type benchProbeBackend struct{ sink atomic.Uint64 }

func (p *benchProbeBackend) work(domain string) {
	h := dnsname.Hash64(domain)
	for i := 0; i < 2048; i++ {
		h = (h ^ uint64(i)) * 0x100000001b3
	}
	if h == 0 {
		p.sink.Add(1) // never taken; defeats dead-code elimination
	}
}

func (p *benchProbeBackend) AuthoritativeNS(domain string) ([]string, bool) {
	p.work(domain)
	return []string{"ns1.bench.net"}, true
}
func (p *benchProbeBackend) LookupA(string) []netip.Addr    { return nil }
func (p *benchProbeBackend) LookupAAAA(string) []netip.Addr { return nil }

func (p *benchProbeBackend) ProbeBatch(domains []string, mail bool) []measure.ProbeResult {
	out := make([]measure.ProbeResult, len(domains))
	for i, d := range domains {
		out[i].NS, out[i].InZone = p.AuthoritativeNS(d)
	}
	return out
}

// BenchmarkProbeBatch measures the probe engine through full fleet
// rounds: 512 watched domains, which the fleet cuts into two ProbeBatch
// slices per round (one per 256 due domains, DESIGN.md §10), one op = one
// probe executed, reported as probes/s.
func BenchmarkProbeBatch(b *testing.B) {
	clk := simclock.NewSim(time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC))
	fleet := measure.NewFleet(measure.DefaultConfig(), clk, &benchProbeBackend{})
	var probes int64
	fleet.OnObservation(func(measure.Observation) { probes++ })
	const domains = 512
	for i := 0; i < domains; i++ {
		fleet.Watch(benchName(i) + ".shop")
	}
	b.ResetTimer()
	gen := 0
	for probes < int64(b.N) {
		if clk.Pending() == 0 {
			gen++
			for i := 0; i < domains; i++ {
				fleet.Watch(fmt.Sprintf("g%d-%s.shop", gen, benchName(i)))
			}
		}
		clk.Advance(10 * time.Minute)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(probes)/secs, "probes/s")
	}
}

// benchFeedFanout measures the pub/sub feed tier end to end: one op is
// one entry published to the topic, with every subscriber connected over
// real TCP at offset 0 before the timer starts. The entries/s metric is
// total deliveries (publishes × subscribers) per second — the fan-out
// throughput across the 1/8/64 subscriber ladder.
func benchFeedFanout(b *testing.B, subs int) {
	bus := stream.NewBus()
	topic := bus.Topic("bench-feed")
	// A deep queue keeps the benchmark shed-free so every subscriber
	// terminates on delivery of the final offset rather than a gap.
	srv := feed.NewServerConfig(topic, feed.ServerConfig{QueueBound: 1 << 16, BatchMax: 512})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	final := int64(b.N - 1)
	var wg sync.WaitGroup
	var delivered atomic.Int64
	for s := 0; s < subs; s++ {
		sub, err := feed.NewClient(addr.String()).Subscribe(ctx, feed.SubscribeOptions{From: 0, Buffer: 4096})
		if err != nil {
			b.Fatal(err)
		}
		defer sub.Close()
		wg.Add(1)
		go func(sub *feed.Subscription) {
			defer wg.Done()
			for ev := range sub.C {
				switch ev.Kind {
				case feed.EventEntry:
					delivered.Add(1)
					if ev.Entry.Offset == final {
						return
					}
				case feed.EventGap:
					if ev.Gap.To >= final {
						return
					}
				}
			}
		}(sub)
	}

	when := time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topic.Publish(when, benchName(i)+".shop", nil)
	}
	wg.Wait()
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(delivered.Load())/secs, "entries/s")
	}
}

// BenchmarkFeedFanout runs the fan-out ladder the feed tier's acceptance
// tracks: identical publish load delivered to 1, 8, and 64 concurrent
// framed subscribers.
func BenchmarkFeedFanout(b *testing.B) {
	for _, subs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			benchFeedFanout(b, subs)
		})
	}
}

func benchName(i int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, 8)
	for p := range b {
		b[p] = alpha[i%26]
		i /= 26
	}
	return string(b)
}
