// Command darkdns runs the DarkDNS pipeline against the simulated DNS
// world and reports the detection inventory: candidates, validation
// outcomes and the transient report. It is the quick operational
// counterpart to cmd/reproduce (which renders the full paper evaluation).
//
// Usage:
//
//	darkdns [-scale 0.002] [-weeks 4] [-seed 1] [-workers 0] [-v]
//	        [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"darkdns/internal/analysis"
	"darkdns/internal/core"
	"darkdns/internal/profiling"
	"darkdns/internal/workpool"
)

func main() {
	scale := flag.Float64("scale", 0.002, "fraction of paper volume to simulate")
	weeks := flag.Int("weeks", 4, "observation window length in weeks")
	seed := flag.Int64("seed", 1, "world seed")
	workers := flag.Int("workers", 0, "pool width of the world build — compile and commit fan-outs (fleet rounds size their own probe slices); 0 = both on the calling goroutine (same results either way)")
	probeCadence := flag.Duration("probe-cadence", 0, "fleet revalidation cadence decoupled from TTL (0 = default 10m interval)")
	snapshot := flag.String("snapshot", "", "persistent world snapshot path: a matching snapshot replaces the compile phase, a miss compiles then saves here (same world either way)")
	verbose := flag.Bool("v", false, "print every confirmed transient domain")
	export := flag.String("export", "", "write candidates to this file in columnar format")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the campaign (world build through drain) to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file once the campaign has run, its results still live")
	flag.Parse()

	start := time.Now()
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res := analysis.Run(analysis.RunConfig{
		Seed: *seed, Scale: *scale, Weeks: *weeks, WatchSampleRate: 1.0,
		Engines:      workpool.AllEngines(*workers),
		ProbeCadence: *probeCadence,
		SnapshotPath: *snapshot,
	})
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("simulated %d weeks at scale %g in %v\n", *weeks, *scale, time.Since(start).Round(time.Millisecond))

	cands := res.Pipeline.Candidates()
	var byOutcome [5]int
	for _, c := range cands {
		byOutcome[c.RDAPOutcome]++
	}
	fmt.Printf("candidates: %d\n", len(cands))
	fmt.Printf("  rdap ok: %d, not-found: %d, not-synced: %d, error: %d\n",
		byOutcome[core.RDAPOK], byOutcome[core.RDAPNotFound],
		byOutcome[core.RDAPNotSynced], byOutcome[core.RDAPError])

	rep := res.Report
	fmt.Printf("transients: %d lower bound, %d confirmed, %d rdap-failed\n",
		len(rep.LowerBound), len(rep.Confirmed), len(rep.RDAPFailed))

	kept, total := analysis.NSStability(res)
	fmt.Printf("ns stability (24h): %s of %d watched\n", analysis.Pct(kept, total), total)

	fr := res.Fleet.Report()
	fmt.Printf("fleet: %d watched, %d probes, %d ever-in-zone, %d died, %d ns-changed\n",
		fr.Watched, fr.Probes, fr.EverInZone, fr.Died, fr.NSChanged)
	fmt.Printf("clock: %d events scheduled, %d fired over %d probe rounds (max round %d domains)\n",
		fr.Engine.Scheduled, fr.Engine.Fired, fr.Rounds, fr.MaxRound)
	fmt.Printf("  drain: %d same-instant groups, %d events coalesced, max group %d\n",
		fr.Engine.Rounds, fr.Engine.Coalesced, fr.Engine.MaxBatch)
	fmt.Fprintf(os.Stderr, "fleet reads: %d of %d probes read the backend; %d folded onto unchanged answers\n",
		fr.Reads, fr.Probes, fr.Probes-fr.Reads)

	if *verbose {
		for _, c := range rep.Confirmed {
			gt := res.World.Domains.Get(c.Domain)
			life := time.Duration(0)
			if gt != nil {
				life = gt.Lifetime
			}
			fmt.Printf("  transient %-28s registrar=%-24s lifetime=%v\n", c.Domain, c.Registrar, life.Round(time.Minute))
		}
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fmt.Fprintln(os.Stderr, "export:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := res.Pipeline.WriteCandidates(f); err != nil {
			fmt.Fprintln(os.Stderr, "export:", err)
			os.Exit(1)
		}
		fmt.Printf("exported %d candidates to %s (columnar)\n", len(cands), *export)
	}
}
