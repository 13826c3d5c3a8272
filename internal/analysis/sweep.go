// Multi-world sweep engine: a seed × scale × policy campaign grid on top
// of persistent world snapshots. Each distinct (seed, world shape)
// compiles exactly once — phase one snapshots it to disk — and phase two
// fans the full cell grid out on a worker pool, every cell rebuilding
// its world from the shared snapshot (decode + serial commit, no
// compile) under its own policy overrides and reducing its campaign to an
// Outcome as soon as it ends, so a cell's world is released before the
// grid finishes. The result is one columnar table (cell parameters + the
// Table 1 / Figure 1 headline numbers) for longitudinal comparison
// across policies — the
// cadence-vs-freshness question Afek & Litmanovich pose, asked of many
// worlds at once.
package analysis

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"darkdns/internal/columnar"
	"darkdns/internal/workpool"
	"darkdns/internal/worldsim"
)

// SweepPolicy is one campaign-policy point of a sweep grid: the knobs
// that change how a world is measured, never the world itself.
type SweepPolicy struct {
	// Name labels the policy in results ("" → derived from the knobs).
	Name string
	// ProbeCadence overrides the fleet's revalidation interval (0 keeps
	// the base config's).
	ProbeCadence time.Duration
	// WatchSampleRate overrides the pipeline's watch sampling — the shed
	// policy (0 keeps the base config's).
	WatchSampleRate float64
}

// Label returns the policy's display name.
func (p SweepPolicy) Label() string {
	if p.Name != "" {
		return p.Name
	}
	return fmt.Sprintf("cad=%s/ws=%g", p.ProbeCadence, p.WatchSampleRate)
}

// SweepConfig describes a sweep grid. The cell set is the cross product
// Seeds × Scales × Policies; empty axes collapse to one entry taken from
// Base.
type SweepConfig struct {
	Seeds    []int64
	Scales   []float64
	Policies []SweepPolicy
	// Weeks applies to every cell (0 keeps Base.Weeks).
	Weeks int
	// Base supplies every RunConfig field the grid axes don't override
	// (engine widths, mail probing, ...).
	Base RunConfig
	// SnapshotDir is where phase one persists one snapshot per distinct
	// (seed, shape). Empty → a fresh temp directory.
	SnapshotDir string
	// Workers is the phase-two campaign fan-out width (≤1 = serial).
	Workers int
}

// SweepCell identifies one grid point.
type SweepCell struct {
	Seed   int64
	Scale  float64
	Policy SweepPolicy
}

// SweepResult is one completed cell: its parameters, its campaign's
// outcome and the wall-clock time the campaign took.
type SweepResult struct {
	Cell    SweepCell
	Outcome Outcome
	Elapsed time.Duration
}

// SweepOutcome is a finished grid plus its sharing stats.
type SweepOutcome struct {
	Cells []*SweepResult
	// DistinctWorlds is how many (seed, shape) pairs phase one compiled
	// and snapshotted — the number of compile fan-outs the whole grid
	// cost, regardless of cell count.
	DistinctWorlds int
	SnapshotDir    string
}

// runConfig materializes one cell's RunConfig from the grid's base.
func (g *SweepConfig) runConfig(c SweepCell, snapshotPath string) RunConfig {
	rc := g.Base
	rc.Seed = c.Seed
	rc.Scale = c.Scale
	if g.Weeks > 0 {
		rc.Weeks = g.Weeks
	}
	if c.Policy.ProbeCadence > 0 {
		rc.ProbeCadence = c.Policy.ProbeCadence
	}
	if c.Policy.WatchSampleRate > 0 {
		rc.WatchSampleRate = c.Policy.WatchSampleRate
	}
	rc.SnapshotPath = snapshotPath
	return rc
}

// worldConfig is the worldsim config a cell's campaign will build, used
// by phase one to compile and key the shared snapshot exactly as Run
// will look it up.
func (g *SweepConfig) worldConfig(seed int64, scale float64) worldsim.Config {
	rc := g.runConfig(SweepCell{Seed: seed, Scale: scale}, "")
	wcfg := worldsim.DefaultConfig(rc.Seed, rc.Scale)
	if rc.Weeks > 0 {
		wcfg.Weeks = rc.Weeks
	}
	wcfg.Engines = rc.Engines
	return wcfg
}

// Sweep executes the grid. Phase one compiles each distinct (seed,
// scale) world once — reusing any matching snapshot already in
// SnapshotDir — and phase two runs every cell's campaign from the shared
// snapshots on a Workers-wide pool. Cells sharing a world decode the
// same file; no cell recompiles.
func Sweep(grid SweepConfig) (*SweepOutcome, error) {
	if len(grid.Seeds) == 0 {
		seed := grid.Base.Seed
		if seed == 0 {
			seed = 1
		}
		grid.Seeds = []int64{seed}
	}
	if len(grid.Scales) == 0 {
		grid.Scales = []float64{grid.Base.Scale}
	}
	if len(grid.Policies) == 0 {
		grid.Policies = []SweepPolicy{{}}
	}
	dir := grid.SnapshotDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "darkdns-sweep-*"); err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	// Phase one: one snapshot per distinct (seed, scale). Serial over
	// worlds — each compile fans out at Base.BuildWorkers.
	paths := make(map[[2]int64]string)
	distinct := 0
	for _, seed := range grid.Seeds {
		for _, scale := range grid.Scales {
			wcfg := grid.worldConfig(seed, scale)
			path := filepath.Join(dir, fmt.Sprintf("world-%d-%x.dsnap", seed, int64(scale*1e9)))
			if prev, err := worldsim.LoadSnapshotFile(path); err == nil && prev.Matches(wcfg) {
				paths[worldKey(seed, scale)] = path
				continue
			}
			ls := worldsim.CompileLayoutSet(wcfg)
			if err := worldsim.SaveSnapshotFile(path, ls); err != nil {
				return nil, fmt.Errorf("sweep: snapshot %s: %w", path, err)
			}
			paths[worldKey(seed, scale)] = path
			distinct++
		}
	}

	// Phase two: the full cell grid on the worker pool.
	var cells []SweepCell
	for _, seed := range grid.Seeds {
		for _, scale := range grid.Scales {
			for _, pol := range grid.Policies {
				cells = append(cells, SweepCell{Seed: seed, Scale: scale, Policy: pol})
			}
		}
	}
	out := &SweepOutcome{
		Cells:          make([]*SweepResult, len(cells)),
		DistinctWorlds: distinct,
		SnapshotDir:    dir,
	}
	workpool.Run(len(cells), grid.Workers, func(i int) {
		c := cells[i]
		start := time.Now()
		res := Run(grid.runConfig(c, paths[worldKey(c.Seed, c.Scale)]))
		elapsed := time.Since(start)
		out.Cells[i] = &SweepResult{Cell: c, Outcome: Reduce(res), Elapsed: elapsed}
		// The campaign's world, pipeline and fleet are garbage now, but
		// the collector's goal was set while they were live, so the next
		// cell could grow the heap to twice them before a collection.
		// Collecting here keeps a grid's peak near Workers campaigns.
		runtime.GC()
	})
	return out, nil
}

func worldKey(seed int64, scale float64) [2]int64 {
	return [2]int64{seed, int64(scale * 1e9)}
}

// sweepSchema is the columnar result-table layout WriteSweep emits.
func sweepSchema() columnar.Schema {
	return columnar.Schema{
		{Name: "seed", Type: columnar.TypeInt64},
		{Name: "scale", Type: columnar.TypeFloat64},
		{Name: "policy", Type: columnar.TypeString},
		{Name: "cadence_ns", Type: columnar.TypeInt64},
		{Name: "watch_sample", Type: columnar.TypeFloat64},
		{Name: "domains", Type: columnar.TypeInt64},
		{Name: "nrds", Type: columnar.TypeInt64},
		{Name: "transients", Type: columnar.TypeInt64},
		{Name: "within_15m", Type: columnar.TypeFloat64},
		{Name: "within_45m", Type: columnar.TypeFloat64},
		{Name: "median_delay_ns", Type: columnar.TypeInt64},
		{Name: "elapsed_ns", Type: columnar.TypeInt64},
	}
}

// WriteSweep emits the grid's result table as one self-describing
// columnar file (readable back with columnar.NewReader).
func WriteSweep(w io.Writer, out *SweepOutcome) error {
	var (
		seed, cadence, domains, nrds, transients, median, elapsed []int64
		scale, sample, within15, within45                         []float64
		policy                                                    []string
	)
	for _, sr := range out.Cells {
		if sr == nil {
			continue
		}
		o := &sr.Outcome
		seed, scale = append(seed, sr.Cell.Seed), append(scale, sr.Cell.Scale)
		policy = append(policy, sr.Cell.Policy.Label())
		cadence = append(cadence, int64(sr.Cell.Policy.ProbeCadence))
		sample = append(sample, sr.Cell.Policy.WatchSampleRate)
		domains, nrds = append(domains, int64(o.Domains)), append(nrds, int64(o.NRDs()))
		transients = append(transients, int64(o.Confirmed))
		within15, within45 = append(within15, o.Within15m), append(within45, o.Within45m)
		median, elapsed = append(median, int64(o.MedianDelay)), append(elapsed, int64(sr.Elapsed))
	}
	cw := columnar.NewWriter(w, sweepSchema(), 0)
	if err := cw.Write(&columnar.RowGroup{Rows: len(seed), Cols: []columnar.Values{
		{Ints: seed}, {Floats: scale}, {Strs: policy}, {Ints: cadence}, {Floats: sample}, {Ints: domains},
		{Ints: nrds}, {Ints: transients}, {Floats: within15}, {Floats: within45}, {Ints: median}, {Ints: elapsed},
	}}); err != nil {
		return err
	}
	return cw.Close()
}
