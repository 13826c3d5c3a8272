package analysis

import (
	"time"

	"darkdns/internal/core"
	"darkdns/internal/measure"
	"darkdns/internal/psl"
	"darkdns/internal/stream"
	"darkdns/internal/worldsim"
)

// Results bundles one complete simulated measurement campaign: the
// ground-truth world, the pipeline's observations, and the measurement
// fleet's probe aggregates. Every experiment function takes a *Results.
type Results struct {
	World    *worldsim.World
	Pipeline *core.Pipeline
	Fleet    *measure.Fleet
	Bus      *stream.Bus
	Report   core.TransientReport

	WindowStart time.Time
	WindowEnd   time.Time
}

// RunConfig parameterizes a reproduction run.
type RunConfig struct {
	Seed  int64
	Scale float64
	Weeks int
	// WatchSampleRate passes through to the pipeline (1.0 =
	// paper-accurate full watching; lower values sample to bound
	// simulated probe volume at large scales).
	WatchSampleRate float64
	// ProbeMail enables the future-work MX/SPF probes (§5).
	ProbeMail bool
	// IngestWorkers selects the pipeline's ingest mode: 0 subscribes
	// per-event (the serial path), ≥1 subscribes in micro-batching mode
	// with that screening worker-pool width. Campaign results are
	// byte-identical across modes for a fixed seed (the pipeline's
	// per-domain decision derivation guarantees it; the determinism
	// tests assert it).
	IngestWorkers int
	// RDAPWorkers selects step 2's dispatch mode: 0 schedules blocking
	// lookups on the clock (the serial path), ≥1 routes candidates
	// through the asynchronous per-TLD dispatch engine with that
	// worker-pool width. Like IngestWorkers, campaign results are
	// byte-identical across modes for a fixed seed.
	RDAPWorkers int
	// ClockWorkers selects the event engine's drain mode: 0 fires events
	// one at a time (the serial path), ≥1 drains the campaign through
	// Sim.RunBatched — same-timestamp events pop as one group and runs
	// of parallel-marked events fire through a pool this wide behind a
	// completion barrier. Campaign reports are byte-identical across 0,
	// 1 and N workers (the engine's determinism contract).
	ClockWorkers int
	// LookaheadWindow, when ≥ 1, drains the campaign through the
	// optimistic lookahead engine (Sim.RunLookahead) instead of the
	// barrier drains: up to this many distinct future timestamps of
	// effect-tagged events are popped per round and their disjoint
	// conflict groups fired concurrently on a pool ClockWorkers wide
	// (minimum 1). Untagged events and tag conflicts degrade to the
	// usual barriers, so campaign reports stay byte-identical across
	// window widths — including window 0, the serial path.
	LookaheadWindow int
	// BuildWorkers selects the world builder's compile fan-out: 0 lays
	// per-TLD layouts out serially on the caller, ≥1 compiles them on a
	// worker pool this wide before the serial commit installs them in
	// canonical plan order. Worlds — and therefore campaign reports —
	// are byte-identical across widths (each plan draws from its own
	// seed-derived RNG stream).
	BuildWorkers int
	// CommitWorkers selects the world builder's commit fan-out: 0
	// installs compiled layouts serially, ≥1 commits them on a worker
	// pool this wide — record installs stripe across the sharded domain
	// store and substrate seedings are commutative across the distinct
	// names layouts own, while ghost-ledger and clock-timeline installs
	// stay serial in canonical order. Worlds — and therefore campaign
	// reports — are byte-identical across widths.
	CommitWorkers int
	// ProbeWorkers is how many contiguous slices the measurement fleet
	// cuts each round into, each submitted as one ProbeBatch call: 0 lets
	// the fleet choose from the round size (one slice per 256 due
	// domains, at most its 16 pool workers), ≥1 means exactly that many.
	// Observation streams — and therefore campaign reports — are
	// byte-identical across widths (results are positional and
	// observation delivery stays in admission order).
	ProbeWorkers int
	// ApplyWorkers selects stage 2 of every fleet round: 0 applies
	// domain state and delivers observations inline in admission order
	// (the serial path), ≥1 fans state applies across this many workers
	// as probe results land, with a sequencing reorder buffer in front
	// of the observers releasing delivery strictly in admission order.
	// Observation streams — and therefore campaign reports — are
	// byte-identical across widths (the buffer reproduces the serial
	// delivery order exactly).
	ApplyWorkers int
	// ProbeCadence decouples the fleet's revalidation interval from the
	// default 10-minute round, per Afek & Litmanovich's TTL-decoupled
	// revalidation. Zero keeps the default cadence.
	ProbeCadence time.Duration
	// SnapshotPath passes through to worldsim.Config.SnapshotPath: when
	// set, a matching persistent world snapshot replaces the compile
	// fan-out (and a miss compiles then saves back). The sweep engine
	// uses this to share one compiled world across a policy grid.
	SnapshotPath string
}

// DefaultRunConfig is sized for test and example runs: ≈1/500 of paper
// volume over a 4-week window, with mail probing on.
func DefaultRunConfig() RunConfig {
	return RunConfig{Seed: 1, Scale: 0.002, Weeks: 4, WatchSampleRate: 1.0, ProbeMail: true}
}

// Run executes a full campaign: builds the world, attaches the pipeline,
// advances the clock through the window plus drain, and computes the
// transient report.
func Run(cfg RunConfig) *Results {
	wcfg := worldsim.DefaultConfig(cfg.Seed, cfg.Scale)
	if cfg.Weeks > 0 {
		wcfg.Weeks = cfg.Weeks
	}
	wcfg.BuildWorkers = cfg.BuildWorkers
	wcfg.CommitWorkers = cfg.CommitWorkers
	wcfg.SnapshotPath = cfg.SnapshotPath
	w := worldsim.New(wcfg)
	start, end := w.Window()

	pcfg := core.DefaultConfig(start, end)
	if cfg.WatchSampleRate > 0 {
		pcfg.WatchSampleRate = cfg.WatchSampleRate
	}
	fleetCfg := measure.DefaultConfig()
	fleetCfg.StopWhenDead = true
	fleetCfg.ProbeMail = cfg.ProbeMail
	fleetCfg.ProbeWorkers = cfg.ProbeWorkers
	fleetCfg.ApplyWorkers = cfg.ApplyWorkers
	if cfg.ProbeCadence > 0 {
		fleetCfg.Revalidate.Cadence = cfg.ProbeCadence
	}
	fleet := measure.NewFleet(fleetCfg, w.Clock, w.ProbeBackend())
	bus := stream.NewBus()
	if cfg.IngestWorkers > 0 {
		pcfg.IngestWorkers = cfg.IngestWorkers
	}
	if cfg.RDAPWorkers > 0 {
		pcfg.RDAPWorkers = cfg.RDAPWorkers
	}
	p := core.New(pcfg, w.Clock, psl.Default(), w.CZDS, core.MuxQuerier{Mux: w.RDAP}, fleet, bus, cfg.Seed+100)
	if d := p.Dispatcher(); d != nil {
		fleet.AttachDispatcher(d)
	}
	if cfg.IngestWorkers > 0 {
		p.StartBatched(w.Hub)
	} else {
		p.Start(w.Hub)
	}
	if cfg.LookaheadWindow > 0 {
		workers := cfg.ClockWorkers
		if workers < 1 {
			workers = 1
		}
		w.RunLookahead(cfg.LookaheadWindow, workers)
	} else if cfg.ClockWorkers > 0 {
		w.RunBatched(cfg.ClockWorkers)
	} else {
		w.Run()
	}
	p.Stop()

	return &Results{
		World: w, Pipeline: p, Fleet: fleet, Bus: bus,
		Report:      p.Transients(),
		WindowStart: start, WindowEnd: end,
	}
}

// monthIndex maps a timestamp to its 30-day month slot within the window.
func (r *Results) monthIndex(t time.Time) int {
	d := int(t.Sub(r.WindowStart) / (24 * time.Hour))
	m := d / 30
	if m < 0 {
		m = 0
	}
	if m > 2 {
		m = 2
	}
	return m
}

// MonthNames label the three 30-day slots after the paper's columns.
var MonthNames = [3]string{"Nov", "Dec", "Jan"}
