package analysis

import (
	"time"

	"darkdns/internal/core"
	"darkdns/internal/measure"
	"darkdns/internal/psl"
	"darkdns/internal/stream"
	"darkdns/internal/workpool"
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
	// Engines are the campaign's concurrency settings, handed down whole
	// to the world builder and the fleet, and read here for the clock
	// drain. Results are byte-identical for a fixed seed at any
	// value.
	workpool.Engines
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
	wcfg.Engines = cfg.Engines
	wcfg.SnapshotPath = cfg.SnapshotPath
	w := worldsim.New(wcfg)
	start, end := w.Window()

	pcfg := core.DefaultConfig(start, end)
	if cfg.WatchSampleRate > 0 {
		pcfg.WatchSampleRate = cfg.WatchSampleRate
	}
	fleetCfg := measure.DefaultConfig()
	fleetCfg.Engines = cfg.Engines
	fleetCfg.StopWhenDead = true
	fleetCfg.ProbeMail = cfg.ProbeMail
	if cfg.ProbeCadence > 0 {
		fleetCfg.Revalidate.Cadence = cfg.ProbeCadence
	}
	fleet := measure.NewFleet(fleetCfg, w.Clock, w.ProbeBackend())
	bus := stream.NewBus()
	p := core.New(pcfg, w.Clock, psl.Default(), w.CZDS, core.MuxQuerier{Mux: w.RDAP}, fleet, bus, cfg.Seed+100)
	p.Start(w.Hub)
	w.RunLookahead(cfg.LookaheadWindow, cfg.ClockWorkers)
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
