package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/netip"
	"sync/atomic"
	"time"

	"darkdns/internal/analysis"
	"darkdns/internal/certstream"
	"darkdns/internal/core"
	"darkdns/internal/measure"
	"darkdns/internal/psl"
	"darkdns/internal/simclock"
	"darkdns/internal/stream"
	"darkdns/internal/worldsim"
)

// campaignConfig is the generated input of both campaign workloads: the
// same campaign for a seed, through the default code path (every width 0)
// or through every engine at width W behind an 8-instant lookahead.
func campaignConfig(e *env, engines bool) analysis.RunConfig {
	cfg := analysis.RunConfig{
		Seed: e.seed, Scale: e.size.campaignScale, Weeks: e.size.campaignWeeks,
		WatchSampleRate: 1, ProbeMail: true,
	}
	if engines {
		w := e.width
		cfg.IngestWorkers, cfg.RDAPWorkers, cfg.ClockWorkers = w, w, w
		cfg.BuildWorkers, cfg.CommitWorkers, cfg.ProbeWorkers, cfg.ApplyWorkers = w, w, w, w
		cfg.LookaheadWindow = 8
	}
	return cfg
}

// countingWriter counts what the report writer produced on its way into
// the hash.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.w.Write(p)
}

func reportHash(res *analysis.Results) (hash string, bytes int64, err error) {
	h := sha256.New()
	cw := &countingWriter{w: h}
	err = analysis.WriteReport(cw, res)
	return hex.EncodeToString(h.Sum(nil)[:8]), cw.n, err
}

// runCampaign measures one campaign → report hash per rep. The reference
// hash comes from the *other* code path (engines for the serial workload,
// serial for the engines one): the paths share no drain, ingest, RDAP,
// probe or apply code, so equal hashes are a differential check of the
// output, and both workloads print the same hash for a seed.
func runCampaign(e *env, engines bool) *result {
	cfg := campaignConfig(e, engines)
	res := newResult()

	setupStart := time.Now()
	refRun := analysis.Run(campaignConfig(e, !engines))
	ref, refBytes, err := reportHash(refRun)
	setup := time.Since(setupStart)
	if err != nil || refBytes == 0 || refRun.Fleet.Report().Probes == 0 || refRun.Pipeline.Len() == 0 {
		e.failf(1, "reference campaign is degenerate: err=%v report_bytes=%d probes=%d candidates=%d",
			err, refBytes, refRun.Fleet.Report().Probes, refRun.Pipeline.Len())
	}
	res.attempted++
	res.notes = append(res.notes,
		fmt.Sprintf("input_hash=%s (RunConfig %+v)", inputDigest(fmt.Sprintf("%+v", cfg)), cfg),
		"report_hash="+ref)

	acc := layerAcc{}
	t := e.timedReps(e.size.campaignReps, func(tr *tracer, run int) (time.Duration, int64) {
		var out *analysis.Results
		var hash string
		s := tr.begin("rep", 0, run)
		if tr == nil {
			out = analysis.Run(cfg)
			hash, _, err = reportHash(out)
		} else {
			out, hash, err = tracedCampaign(cfg, tr, s.id, run, acc)
		}
		wall := tr.end(s)
		res.attempted++
		if err != nil || hash != ref {
			e.failf(1, "rep %d: report hash %s (err=%v), reference %s", run, hash, err, ref)
		}
		return wall, out.Fleet.Report().Probes
	})

	res.endToEnd([]float64{setup.Seconds()}, t.walls, [][]float64{scale(t.walls, 1000)}, t.items, t.mem)
	if e.tr != nil {
		acc.add("measure.round_ns_per_probe", fleetRoundIsolation(e.tr, e.size.isolationN))
		res.layerMedians(acc)
		res.runtimeLayer(t.mem, median(t.walls), median(t.tracedWalls))
	}
	return res
}

// tracedCampaign is analysis.Run rebuilt from the same public
// constructors, with a span around each stage and a timing decorator at
// each interface seam. It must reproduce analysis.Run's report hash.
func tracedCampaign(cfg analysis.RunConfig, tr *tracer, parent, run int, acc layerAcc) (*analysis.Results, string, error) {
	wcfg := worldsim.DefaultConfig(cfg.Seed, cfg.Scale)
	wcfg.Weeks = cfg.Weeks
	wcfg.BuildWorkers, wcfg.CommitWorkers = cfg.BuildWorkers, cfg.CommitWorkers
	var w *worldsim.World
	build := tr.timed("worldsim.New", parent, run, func() { w = worldsim.New(wcfg) })
	acc.add("worldsim.build_s", build.Seconds())
	acc.add("worldsim.domains", float64(w.Domains.Len()))
	acc.add("simclock.schedule_batch_events", float64(w.Clock.Pending()))
	start, end := w.Window()

	// One coverage shared by the three seams: ingest calls Watch, which
	// probes, so their intervals nest and must be united, not summed.
	cover := &coverage{}
	probe := tr.seam("measure.Backend", run, cover)
	query := tr.seam("rdap.Querier", run, cover)
	ingest := tr.seam("core.Pipeline.HandleEvent", run, cover)

	pcfg := core.DefaultConfig(start, end)
	pcfg.WatchSampleRate = cfg.WatchSampleRate
	pcfg.IngestWorkers, pcfg.RDAPWorkers = cfg.IngestWorkers, cfg.RDAPWorkers
	fcfg := measure.DefaultConfig()
	fcfg.StopWhenDead = true
	fcfg.ProbeMail = cfg.ProbeMail
	fcfg.ProbeWorkers, fcfg.ApplyWorkers = cfg.ProbeWorkers, cfg.ApplyWorkers
	fleet := measure.NewFleet(fcfg, w.Clock, traceBackend(w.ProbeBackend(), probe))
	var observations, events, queryFailed atomic.Int64
	fleet.OnObservation(func(measure.Observation) { observations.Add(1) })
	bus := stream.NewBus()
	p := core.New(pcfg, w.Clock, psl.Default(), w.CZDS,
		traceQuerier(core.MuxQuerier{Mux: w.RDAP}, query, &queryFailed), fleet, bus, cfg.Seed+100)
	if d := p.Dispatcher(); d != nil {
		fleet.AttachDispatcher(d)
	}
	var unsub func()
	if cfg.IngestWorkers > 0 {
		// The batched path buffers inside the pipeline; only its event
		// count is visible from here.
		p.StartBatched(w.Hub)
		unsub = w.Hub.Subscribe(func(certstream.Event) { events.Add(1) })
	} else {
		// What Pipeline.Start subscribes, with a stopwatch around it.
		unsub = w.Hub.Subscribe(func(ev certstream.Event) {
			events.Add(1)
			t := ingest.enter()
			p.HandleEvent(ev)
			ingest.exit(t)
		})
	}
	drain := tr.timed("simclock.drain", parent, run, func() {
		switch {
		case cfg.LookaheadWindow > 0:
			w.RunLookahead(cfg.LookaheadWindow, max(cfg.ClockWorkers, 1))
		case cfg.ClockWorkers > 0:
			w.RunBatched(cfg.ClockWorkers)
		default:
			w.Run()
		}
	})
	unsub()
	p.Stop()

	out := &analysis.Results{World: w, Pipeline: p, Fleet: fleet, Bus: bus, WindowStart: start, WindowEnd: end}
	transients := tr.timed("analysis.Transients", parent, run, func() { out.Report = p.Transients() })
	var hash string
	var reportBytes int64
	var err error
	report := tr.timed("analysis.WriteReport", parent, run, func() { hash, reportBytes, err = reportHash(out) })

	acc.add("simclock.drain_s", drain.Seconds())
	acc.add("simclock.drain_self_s", drain.Seconds()-cover.seconds())
	st := w.Clock.Stats()
	acc.add("simclock.events_scheduled", float64(st.Scheduled))
	acc.add("simclock.events_fired", float64(st.Fired))
	acc.add("simclock.max_batch", float64(st.MaxBatch))
	acc.add("simclock.windows", float64(st.Windows))
	acc.add("simclock.spec_fired", float64(st.SpecFired))
	acc.add("simclock.conflicts", float64(st.Conflicts))
	acc.add("simclock.barriers", float64(st.Barriers))
	acc.add("core.ingest_events", float64(events.Load()))
	acc.add("core.ingest_busy_s", ingest.busySeconds())
	acc.add("core.candidates", float64(p.Len()))
	acc.add("core.admit_ratio", ratio(float64(p.Len()), float64(events.Load())))
	acc.add("rdap.queries", query.count())
	acc.add("rdap.query_busy_s", query.busySeconds())
	acc.add("rdap.query_failed", float64(queryFailed.Load()))
	fr := fleet.Report()
	acc.add("rdap.dispatch_enqueued", float64(fr.Dispatch.Enqueued))
	acc.add("rdap.dispatch_completed", float64(fr.Dispatch.Completed))
	acc.add("rdap.dispatch_shed", float64(fr.Dispatch.Shed))
	acc.add("rdap.dispatch_max_depth", float64(fr.Dispatch.MaxDepth))
	acc.add("worldsim.probe_backend_calls", probe.count())
	acc.add("worldsim.probe_backend_busy_s", probe.busySeconds())
	acc.add("worldsim.probe_backend_mallocs", probeMallocs(w.ProbeBackend(), fleet.States()))
	acc.add("measure.probes", float64(fr.Probes))
	acc.add("measure.rounds", float64(fr.Rounds))
	acc.add("measure.max_round", float64(fr.MaxRound))
	acc.add("measure.watched", float64(fr.Watched))
	acc.add("measure.died", float64(fr.Died))
	acc.add("measure.observations", float64(observations.Load()))
	acc.add("measure.reorder_held", float64(fr.ReorderHeld))
	acc.add("analysis.transients_s", transients.Seconds())
	acc.add("analysis.report_s", report.Seconds())
	acc.add("analysis.report_bytes", float64(reportBytes))
	acc.add("stream.feed_published", float64(bus.Topic(pcfg.FeedTopic).Len()))
	return out, hash, err
}

// probeMallocs is the allocation count of one full probe (NS, A, AAAA,
// MX, TXT) against the drained world's backend, measured alone on this
// goroutine over the campaign's own watched names: the per-call seam
// cannot read MemStats millions of times.
func probeMallocs(b measure.Backend, states []measure.DomainState) float64 {
	if len(states) > 4096 {
		states = states[:4096]
	}
	mb, _ := b.(measure.MailBackend)
	mark := markMem()
	for i := range states {
		d := states[i].Domain
		b.AuthoritativeNS(d)
		b.LookupA(d)
		b.LookupAAAA(d)
		if mb != nil {
			mb.LookupMX(d)
			mb.LookupTXT(d)
		}
	}
	return ratio(mark.delta().mallocs, float64(len(states)))
}

// staticBackend answers every probe with a fixed delegation at no cost.
type staticBackend struct{}

var staticNS = []string{"ns1.bench.net"}

func (staticBackend) AuthoritativeNS(string) ([]string, bool) { return staticNS, true }
func (staticBackend) LookupA(string) []netip.Addr             { return nil }
func (staticBackend) LookupAAAA(string) []netip.Addr          { return nil }

// fleetRoundIsolation times the fleet's own round machinery: the fleet is
// reachable only through clock callbacks, so it is measured alone with a
// zero-cost backend under 512 watched names and returns ns per probe.
func fleetRoundIsolation(tr *tracer, probes int) float64 {
	clk := simclock.NewSim(time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC))
	fleet := measure.NewFleet(measure.DefaultConfig(), clk, staticBackend{})
	var done int
	fleet.OnObservation(func(measure.Observation) { done++ })
	for i := 0; i < 512; i++ {
		fleet.Watch(fmt.Sprintf("iso%03d.shop", i))
	}
	done = 0
	d := tr.timed("measure.round_isolation", 0, 0, func() {
		for done < probes && clk.Pending() > 0 {
			clk.Advance(10 * time.Minute)
		}
	})
	return ratio(float64(d), float64(done))
}
