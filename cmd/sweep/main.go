// Command sweep runs a seed × scale × policy campaign grid through the
// multi-world sweep engine: each distinct (seed, scale) world compiles
// exactly once and persists as a columnar snapshot, then every cell's
// campaign rebuilds from the shared snapshot under its own policy
// (probe cadence, watch sampling). Results land in one self-describing
// columnar table for longitudinal comparison.
//
// Usage:
//
//	sweep [-seeds 1,2,3] [-scales 0.001,0.002] [-weeks 2] \
//	      [-cadences 10m,2m] [-watch-samples 1.0] \
//	      [-snapshot-dir /tmp/worlds] [-sweep-workers 4] [-workers 0] [-out sweep.dcol]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"darkdns/internal/analysis"
	"darkdns/internal/workpool"
	"darkdns/internal/worldsim"
)

func main() {
	seeds := flag.String("seeds", "1", "comma-separated world seeds")
	scales := flag.String("scales", "0.001", "comma-separated world scales (fraction of paper volume)")
	weeks := flag.Int("weeks", 2, "observation window length in weeks, applied to every cell")
	cadences := flag.String("cadences", "10m", "comma-separated fleet revalidation cadences, one policy per value")
	watchSamples := flag.String("watch-samples", "1.0", "comma-separated watch sampling rates (shed policy), crossed with -cadences into policies")
	snapshotDir := flag.String("snapshot-dir", "", "directory for persistent world snapshots (empty = fresh temp dir)")
	sweepWorkers := flag.Int("sweep-workers", 4, "campaign fan-out width across grid cells (≤1 = serial)")
	workers := flag.Int("workers", 0, "pool width of every stage inside each cell's world build and campaign, behind an 8-instant clock lookahead; 0 = serial cells, which -sweep-workers already runs side by side")
	out := flag.String("out", "", "write the columnar result table to this file")
	flag.Parse()

	grid := analysis.SweepConfig{
		Weeks:       *weeks,
		SnapshotDir: *snapshotDir,
		Workers:     *sweepWorkers,
		Base: analysis.RunConfig{
			WatchSampleRate: 1.0, ProbeMail: true,
			Engines: workpool.AllEngines(*workers),
		},
	}
	var err error
	if grid.Seeds, err = parseInts(*seeds); err != nil {
		fatal("-seeds: %v", err)
	}
	if grid.Scales, err = parseFloats(*scales); err != nil {
		fatal("-scales: %v", err)
	}
	if grid.Policies, err = buildPolicies(*cadences, *watchSamples); err != nil {
		fatal("policies: %v", err)
	}

	nCells := len(grid.Seeds) * len(grid.Scales) * len(grid.Policies)
	fmt.Fprintf(os.Stderr, "sweep: %d seeds × %d scales × %d policies = %d cells (%d distinct worlds)\n",
		len(grid.Seeds), len(grid.Scales), len(grid.Policies), nCells, len(grid.Seeds)*len(grid.Scales))
	start := time.Now()
	res, err := analysis.Sweep(grid)
	if err != nil {
		fatal("sweep: %v", err)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d cells in %v; compiled %d worlds (%d compile fan-outs, %d snapshot loads this process), snapshots in %s\n",
		len(res.Cells), time.Since(start).Round(time.Millisecond), res.DistinctWorlds,
		worldsim.CompileCount(), worldsim.SnapshotLoadCount(), res.SnapshotDir)

	fmt.Printf("%-6s %-9s %-24s %9s %8s %10s %8s %8s %10s %10s\n",
		"seed", "scale", "policy", "domains", "nrds", "transients", "w15m", "w45m", "median", "elapsed")
	for _, sr := range res.Cells {
		fmt.Printf("%-6d %-9g %-24s %9d %8d %10d %7.1f%% %7.1f%% %10v %10v\n",
			sr.Cell.Seed, sr.Cell.Scale, sr.Cell.Policy.Label(),
			sr.Domains, sr.NRDs, sr.Transients,
			100*sr.Within15m, 100*sr.Within45m,
			sr.MedianDelay.Round(time.Second), sr.Elapsed.Round(time.Millisecond))
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("out: %v", err)
		}
		defer f.Close()
		if err := analysis.WriteSweep(f, res); err != nil {
			fatal("out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d result rows to %s (columnar)\n", len(res.Cells), *out)
	}
}

// buildPolicies crosses the two policy axes into SweepPolicies.
func buildPolicies(cadences, watchSamples string) ([]analysis.SweepPolicy, error) {
	cads, err := parseDurations(cadences)
	if err != nil {
		return nil, err
	}
	wss, err := parseFloats(watchSamples)
	if err != nil {
		return nil, err
	}
	var out []analysis.SweepPolicy
	for _, c := range cads {
		for _, ws := range wss {
			out = append(out, analysis.SweepPolicy{ProbeCadence: c, WatchSampleRate: ws})
		}
	}
	return out, nil
}

func parseInts(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseDurations(s string) ([]time.Duration, error) {
	var out []time.Duration
	for _, f := range strings.Split(s, ",") {
		v, err := time.ParseDuration(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
