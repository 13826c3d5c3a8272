// Multi-world sweep engine: a seed × scale × policy campaign grid on top
// of persistent world snapshots. Each distinct (seed, world shape)
// compiles exactly once — phase one snapshots it to disk — and phase two
// fans the full cell grid out on a worker pool, every cell rebuilding
// its world from the shared snapshot (decode + parallel commit, no
// compile) under its own policy overrides. The outcome is one columnar
// result table (cell parameters + the Table 1 / Figure 1 headline
// numbers) for longitudinal comparison across policies — the
// cadence-vs-freshness question Afek & Litmanovich pose, asked of many
// worlds at once.
package analysis

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// SweepResult is one completed cell: its parameters, the full campaign
// results, and the headline columns the result table carries.
type SweepResult struct {
	Cell    SweepCell
	Results *Results

	Domains     int     // ground-truth world size
	NRDs        int     // CT-detected NRDs (Table 1 total)
	Transients  int     // confirmed transients (Table 4 headline)
	Within15m   float64 // Figure 1: fraction certified within 15 min
	Within45m   float64 // Figure 1: fraction certified within 45 min
	MedianDelay time.Duration
	Elapsed     time.Duration // wall-clock campaign time
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
		sr := &SweepResult{Cell: c, Results: res, Elapsed: time.Since(start)}
		sr.Domains = res.World.Domains.Len()
		for _, row := range Table1(res) {
			sr.NRDs += row.Total
		}
		sr.Transients = len(res.Report.Confirmed)
		sr.Within15m, sr.Within45m, sr.MedianDelay = Figure1Headline(res)
		out.Cells[i] = sr
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
	cw := columnar.NewWriter(w, sweepSchema(), 0)
	for _, sr := range out.Cells {
		if sr == nil {
			continue
		}
		if err := cw.Append(
			columnar.Int(sr.Cell.Seed),
			columnar.Float(sr.Cell.Scale),
			columnar.String(sr.Cell.Policy.Label()),
			columnar.Int(int64(sr.Cell.Policy.ProbeCadence)),
			columnar.Float(sr.Cell.Policy.WatchSampleRate),
			columnar.Int(int64(sr.Domains)),
			columnar.Int(int64(sr.NRDs)),
			columnar.Int(int64(sr.Transients)),
			columnar.Float(sr.Within15m),
			columnar.Float(sr.Within45m),
			columnar.Int(int64(sr.MedianDelay)),
			columnar.Int(int64(sr.Elapsed)),
		); err != nil {
			return err
		}
	}
	return cw.Close()
}
