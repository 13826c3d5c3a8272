// Command reproduce runs the DarkDNS measurement campaign against the
// simulated DNS world and prints the paper's evaluation (IMC 2024) beside
// the paper's values: analysis.WriteOutcome of the campaign's Outcome.
// Stderr ends with the report hash, the first 8 bytes of stdout's SHA-256.
//
// Usage:
//
//	reproduce [-scale 0.005] [-weeks 13] [-seed 1] [-workers 0] [-exp all]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// Experiments: table1 figure1 nsstability table2 rdapfail figure2 table3
// table4 table5 blocklists nod cctld rzu mail all
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"darkdns/internal/analysis"
	"darkdns/internal/profiling"
	"darkdns/internal/workpool"
)

func main() {
	scale := flag.Float64("scale", 0.005, "fraction of paper volume to simulate")
	weeks := flag.Int("weeks", 13, "observation window length in weeks (paper: 13)")
	seed := flag.Int64("seed", 1, "world seed (runs are deterministic per seed)")
	watch := flag.Float64("watch-sample", 1.0, "fraction of candidates probed by the fleet")
	workers := flag.Int("workers", 0, "pool width of the world compile fan-out only (the commit is serial; fleet rounds size their own probe slices); 0 = compile on the calling goroutine (byte-identical output either way)")
	probeCadence := flag.Duration("probe-cadence", 0, "fleet revalidation cadence decoupled from TTL (0 = default 10m interval)")
	snapshot := flag.String("snapshot", "", "persistent world snapshot path: a matching snapshot replaces the compile phase, a miss compiles then saves here (byte-identical output either way)")
	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(analysis.Sections(), ", ")+", all)")
	csvDir := flag.String("csv", "", "directory to write figure1.csv and figure2.csv to for external plotting")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the campaign and its report (world build through the rendered report) to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file once the report is rendered, the campaign's results still live")
	flag.Parse()
	if *exp != "all" && !slices.Contains(analysis.Sections(), *exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "building world (scale=%g, weeks=%d, seed=%d, workers=%d)…\n", *scale, *weeks, *seed, *workers)
	start := time.Now()
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	check(err)
	res := analysis.Run(analysis.RunConfig{
		Seed: *seed, Scale: *scale, Weeks: *weeks, WatchSampleRate: *watch, ProbeMail: true,
		Engines:      workpool.AllEngines(*workers),
		ProbeCadence: *probeCadence,
		SnapshotPath: *snapshot,
	})
	fmt.Fprintf(os.Stderr, "simulation complete in %v: %d candidates, %d transient lower bound\n",
		time.Since(start).Round(time.Millisecond), res.Pipeline.Len(), len(res.Report.LowerBound))
	fr := res.Fleet.Report()
	fmt.Fprintf(os.Stderr, "event engine: %d scheduled, %d fired; fleet coalesced %d probes into %d rounds (max %d wide)\n",
		fr.Engine.Scheduled, fr.Engine.Fired, fr.Probes, fr.Rounds, fr.MaxRound)
	fmt.Fprintf(os.Stderr, "fleet reads: %d of %d probes read the backend; %d folded onto unchanged answers\n",
		fr.Reads, fr.Probes, fr.Probes-fr.Reads)
	fmt.Fprintln(os.Stderr)
	o := analysis.Reduce(res)
	h := sha256.New()
	check(analysis.WriteOutcome(io.MultiWriter(os.Stdout, h), o, *exp))
	// The profiles cover Reduce and the render too, and res is kept live
	// until the heap profile is written, so its in-use view holds what the
	// campaign keeps.
	check(stopProfiles())
	runtime.KeepAlive(res)
	fmt.Fprintf(os.Stderr, "report hash: %x\n", h.Sum(nil)[:8])
	if *csvDir != "" {
		check(os.MkdirAll(*csvDir, 0o755))
		check(writeCSV(*csvDir, o.Figure1, o.Figure2))
	}
}

// writeCSV writes figure N of figs to dir/figureN.csv.
func writeCSV(dir string, figs ...analysis.Figure) error {
	for i, fig := range figs {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("figure%d.csv", i+1)))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := analysis.WriteFigureCSV(f, fig); err != nil {
			return err
		}
	}
	return nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
