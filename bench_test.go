// Root benchmark harness: one benchmark per table and figure of the
// paper's evaluation (DESIGN.md §4 experiment index E1–E12), plus
// end-to-end campaign and pipeline-ingest benchmarks, and the ablation
// benches DESIGN.md §5 calls out live next to their packages
// (zoneset: streaming vs materialized diff; stream: batch vs per-message).
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

// benchResults is the shared campaign every per-table benchmark analyzes.
// Building it once keeps `go test -bench=.` runtimes sane while still
// measuring each experiment's analysis cost.
var (
	benchOnce sync.Once
	benchRes  *analysis.Results
)

func sharedResults(b *testing.B) *analysis.Results {
	b.Helper()
	benchOnce.Do(func() {
		benchRes = analysis.Run(analysis.RunConfig{Seed: 2024, Scale: 0.003, Weeks: 5, WatchSampleRate: 1.0, ProbeMail: true})
	})
	return benchRes
}

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

// BenchmarkTable1NRDs regenerates Table 1 (E1).
func BenchmarkTable1NRDs(b *testing.B) {
	res := sharedResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.Table1(res)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
		_ = analysis.RenderTable1(rows)
	}
}

// BenchmarkFigure1DetectionDelay regenerates Figure 1 (E2).
func BenchmarkFigure1DetectionDelay(b *testing.B) {
	res := sharedResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buckets, series := analysis.Figure1(res)
		if len(series) == 0 || len(buckets) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkNSStability regenerates the §4.1 NS-stability statistic (E3).
func BenchmarkNSStability(b *testing.B) {
	res := sharedResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, total := analysis.NSStability(res); total == 0 {
			b.Fatal("no watched domains")
		}
	}
}

// BenchmarkTable2Transients regenerates Table 2 (E4).
func BenchmarkTable2Transients(b *testing.B) {
	res := sharedResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.Table2(res)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
		_ = analysis.RenderTable2(rows)
	}
}

// BenchmarkRDAPFailureStats regenerates the §4.2 failure accounting (E5).
func BenchmarkRDAPFailureStats(b *testing.B) {
	res := sharedResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := analysis.RDAPFailureStats(res)
		if s.NRDTotal == 0 {
			b.Fatal("empty stats")
		}
	}
}

// BenchmarkFigure2Lifetimes regenerates Figure 2 (E6).
func BenchmarkFigure2Lifetimes(b *testing.B) {
	res := sharedResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, cdf := analysis.Figure2(res)
		if cdf.Len() == 0 {
			b.Fatal("no lifetimes")
		}
	}
}

// BenchmarkTable3Registrars regenerates Table 3 (E7).
func BenchmarkTable3Registrars(b *testing.B) {
	res := sharedResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := analysis.Table3(res); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable4DNSHosting regenerates Table 4 (E8).
func BenchmarkTable4DNSHosting(b *testing.B) {
	res := sharedResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := analysis.Table4(res); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable5WebHosting regenerates Table 5 (E9).
func BenchmarkTable5WebHosting(b *testing.B) {
	res := sharedResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := analysis.Table5(res); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkBlocklistCoverage regenerates the §4.3 statistics (E10).
func BenchmarkBlocklistCoverage(b *testing.B) {
	res := sharedResults(b)
	pollEnd := res.WindowEnd.Add(90 * 24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		early, _ := analysis.BlocklistCoverage(res, pollEnd)
		if early.Population == 0 {
			b.Fatal("no population")
		}
	}
}

// BenchmarkNODComparison regenerates the §4.4 feed comparison (E11).
func BenchmarkNODComparison(b *testing.B) {
	res := sharedResults(b)
	day := res.WindowStart.Add(14 * 24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp := analysis.CompareNOD(res, day)
		if cmp.Both+cmp.CTOnly == 0 {
			b.Fatal("degenerate comparison")
		}
	}
}

// BenchmarkCCTLDGroundTruth regenerates the §4.4 .nl experiment (E12).
func BenchmarkCCTLDGroundTruth(b *testing.B) {
	res := sharedResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc := analysis.CCTLDGroundTruth(res)
		if cc.FastDeleted == 0 {
			b.Fatal("no ground truth")
		}
	}
}

// BenchmarkRZUWhatIf computes the §5 rapid-zone-update extension (X1).
func BenchmarkRZUWhatIf(b *testing.B) {
	res := sharedResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.RZUWhatIf(res, 5*time.Minute)
		if r.FastDeleted == 0 {
			b.Fatal("no population")
		}
	}
}

// BenchmarkMailStats computes the §5 mail-adoption extension (X2).
func BenchmarkMailStats(b *testing.B) {
	res := sharedResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := analysis.MailStats(res)
		if m.NormalTotal == 0 {
			b.Fatal("no population")
		}
	}
}

// benchPipeline assembles an ingest-only pipeline (no RDAP delay, no
// fleet, no feed) plus a cyclic corpus of pre-built events. The corpus is
// larger than the pipeline's shard count so steady-state iterations
// spread across every stripe: after the first cycle admits each name,
// every further event exercises the full screen path (PSL extraction,
// name hygiene, duplicate probe, lock-free zone filter).
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
// engine's drain at window 0. One op = one event.
func BenchmarkSimSerialRun(b *testing.B) {
	var sink [1]uint64
	s := simclock.NewSim(time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC))
	benchSimTimeline(s, b.N, &sink)
	b.ResetTimer()
	if s.Run() != b.N {
		b.Fatal("lost events")
	}
}

// benchSimTaggedTimeline loads a Sim with n effect-tagged events at n
// distinct instants, one domain atom each — the shape lookahead
// exploits: masks across neighbouring timestamps are (mostly) disjoint,
// so a window of them fires in one pooled round where window 0 takes n
// rounds. Each event carries the same CPU slab as
// benchSimTimeline.
func benchSimTaggedTimeline(s *simclock.Sim, n int, sink *[1]uint64) {
	base := time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)
	entries := make([]simclock.TaggedTimed, n)
	for i := 0; i < n; i++ {
		i := i
		entries[i] = simclock.TaggedTimed{
			At:  base.Add(time.Duration(i) * time.Second),
			Tag: simclock.DomainTag(benchName(i) + ".shop"),
			Fn: func(time.Time) {
				h := uint64(i)
				for k := 0; k < 512; k++ {
					h = (h ^ uint64(k)) * 0x100000001b3
				}
				if h == 0 {
					sink[0]++ // defeats dead-code elimination; never taken
				}
			},
		}
	}
	s.ScheduleBatchTagged(entries)
}

// BenchmarkLookaheadRun measures the drain's lookahead setting: window=1
// exercises the tagged machinery without ever crossing timestamps,
// window=8 pools effect-disjoint events from up to eight instants into
// one concurrent round. One op = one event; against
// BenchmarkSimSerialRun it shows what cross-timestamp speculation buys on
// a spread-instant timeline.
func BenchmarkLookaheadRun(b *testing.B) {
	for _, window := range []int{1, 8} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			var sink [1]uint64
			start := time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)
			s := simclock.NewSim(start)
			benchSimTaggedTimeline(s, b.N, &sink)
			b.ResetTimer()
			if s.RunUntilLookahead(start.Add(time.Duration(b.N)*time.Second), window, runtime.GOMAXPROCS(0)) != b.N {
				b.Fatal("lost events")
			}
		})
	}
}

// benchWorldConfig is a paper-shape (full multi-TLD plan mix) world
// sized so one build lays out ≈10^5 registrations — big enough that the
// compile phase dominates, small enough for bench smoke runs.
func benchWorldConfig(seed int64, buildWorkers, commitWorkers int) worldsim.Config {
	cfg := worldsim.DefaultConfig(seed, 0.02)
	cfg.Weeks = 4
	cfg.BuildWorkers = buildWorkers
	cfg.CommitWorkers = commitWorkers
	return cfg
}

// benchWorldBuild measures the two-phase world builder end to end
// (compile fan-out + commit engine). One op = one world; the
// domains/s metric is what the acceptance comparison tracks —
// BenchmarkWorldBuildParallel must lay out ≥2× the domains per second of
// BenchmarkWorldBuildSerial at 8 workers.
func benchWorldBuild(b *testing.B, buildWorkers, commitWorkers int) {
	b.ReportAllocs()
	domains := 0
	for i := 0; i < b.N; i++ {
		w := worldsim.New(benchWorldConfig(int64(i+1), buildWorkers, commitWorkers))
		domains += w.Domains.Len()
		w.Stop()
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(domains)/secs, "domains/s")
	}
}

// BenchmarkWorldBuildSerial is the baseline: every per-TLD layout
// compiled and committed on the calling goroutine.
func BenchmarkWorldBuildSerial(b *testing.B) { benchWorldBuild(b, 0, 0) }

// BenchmarkWorldBuildParallel compiles per-TLD layouts on a
// machine-width worker pool; the commit engine stays serial, so the
// WorldBuild pair isolates the compile fan-out.
func BenchmarkWorldBuildParallel(b *testing.B) {
	benchWorldBuild(b, runtime.GOMAXPROCS(0), 0)
}

// BenchmarkWorldCommitSerial fixes the compile fan-out at machine width
// and commits serially — the ≈37 %-of-build serial fraction the commit
// engine attacks; against BenchmarkWorldCommitParallel the domains/s
// pair isolates the commit engine the way the WorldBuild pair isolates
// compile. Configuration-identical to BenchmarkWorldBuildParallel by
// design: the commit pair carries its own stable names so the
// comparison reads standalone. (On a single-CPU runner the two are
// expected to tie; the speedup claim is the serial-fraction accounting
// in DESIGN.md §9.)
func BenchmarkWorldCommitSerial(b *testing.B) {
	benchWorldBuild(b, runtime.GOMAXPROCS(0), 0)
}

// BenchmarkWorldCommitParallel commits compiled layouts on a
// machine-width pool: sharded Domains installs plus pooled substrate
// seeding, with only ghost-ledger and clock-timeline installs serial.
func BenchmarkWorldCommitParallel(b *testing.B) {
	benchWorldBuild(b, runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0))
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
		benchLayoutSet = worldsim.CompileLayoutSet(benchWorldConfig(1, runtime.GOMAXPROCS(0), 0))
	})
	return benchLayoutSet
}

// BenchmarkSnapshotSave measures the columnar snapshot encoder: one op
// serializes the compiled benchmark world. The layout set is compiled
// once outside the timer; domains/s counts registrations encoded.
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
// world from memory. The acceptance bar is domains/s ≥3× the
// BenchmarkWorldBuildSerial baseline — loading a world must beat
// re-laying it out by a wide margin or snapshots aren't worth the disk.
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
// parsing in a network deployment), so the ProbeBatch pair exposes
// batch-slice scaling rather than map-lookup noise.
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

// benchProbeBatch measures the probe engine through full fleet rounds:
// 512 watched domains, one op = one probe executed, reported as
// probes/s. probeWorkers
// is the slice count — 0 lets the fleet size the cut to the round (two
// slices for 512 domains), ≥1 partitions each round into exactly that
// many; every slice is one ProbeBatch call (DESIGN.md §10).
func benchProbeBatch(b *testing.B, probeWorkers int) {
	clk := simclock.NewSim(time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC))
	cfg := measure.DefaultConfig()
	cfg.ProbeWorkers = probeWorkers
	fleet := measure.NewFleet(cfg, clk, &benchProbeBackend{})
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

// BenchmarkProbeBatchSerial is the probe engine's default: width 0, the
// fleet choosing the slice count from the round size.
func BenchmarkProbeBatchSerial(b *testing.B) { benchProbeBatch(b, 0) }

// BenchmarkProbeBatchParallel submits each round as machine-width batch
// slices through the same path; against BenchmarkProbeBatchSerial the
// probes/s pair tracks the sixth engine's trajectory.
func BenchmarkProbeBatchParallel(b *testing.B) {
	benchProbeBatch(b, runtime.GOMAXPROCS(0))
}

// benchFeedFanout measures the pub/sub feed tier end to end: one op is
// one entry published to the topic, with every subscriber connected over
// real TCP at offset 0 before the timer starts. The entries/s metric is
// total deliveries (publishes × subscribers) per second — the fan-out
// throughput across the 1/8/64 subscriber ladder.
func benchFeedFanout(b *testing.B, subs int) feed.FanoutStats {
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
	return srv.Stats()
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

// BenchmarkFeedFanoutCachedEncode measures the shared encoding on the
// fan-out shape that motivates it: the pump encodes each polled batch
// once and every live subscriber's DATA write copies those bytes. The
// hits/op metric is deliveries made from the pump's encoding per
// published entry — the subscriber count, less whatever a subscriber
// still replayed from the log (encoded by its own session) before it
// went live.
func BenchmarkFeedFanoutCachedEncode(b *testing.B) {
	st := benchFeedFanout(b, 8)
	b.ReportMetric(float64(st.EncodeCacheHits)/float64(b.N), "hits/op")
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
