// Command reproduce runs the full DarkDNS measurement campaign against the
// simulated DNS world and regenerates every table and figure of the
// paper's evaluation (IMC 2024), printing them in the paper's layout.
//
// Usage:
//
//	reproduce [-scale 0.005] [-weeks 13] [-seed 1] [-workers 0] [-exp all]
//
// Experiments: table1 figure1 nsstability table2 rdapfail figure2 table3
// table4 table5 blocklists nod cctld all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"darkdns/internal/analysis"
	"darkdns/internal/blocklist"
	"darkdns/internal/workpool"
)

func main() {
	scale := flag.Float64("scale", 0.005, "fraction of paper volume to simulate")
	weeks := flag.Int("weeks", 13, "observation window length in weeks (paper: 13)")
	seed := flag.Int64("seed", 1, "world seed (runs are deterministic per seed)")
	watch := flag.Float64("watch-sample", 1.0, "fraction of candidates probed by the fleet")
	workers := flag.Int("workers", 0, "pool width of every stage at once — world compile and commit, fleet probe and apply slices, the clock's lookahead groups — behind an 8-instant clock lookahead; 0 = every stage on the calling goroutine (byte-identical output either way)")
	probeCadence := flag.Duration("probe-cadence", 0, "fleet revalidation cadence decoupled from TTL (0 = default 10m interval)")
	snapshot := flag.String("snapshot", "", "persistent world snapshot path: a matching snapshot replaces the compile phase, a miss compiles then saves here (byte-identical output either way)")
	exp := flag.String("exp", "all", "experiment to run (table1..table5, figure1, figure2, nsstability, rdapfail, blocklists, nod, cctld, rzu, mail, all)")
	csvDir := flag.String("csv", "", "directory to write figure CSVs for external plotting")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "building world (scale=%g, weeks=%d, seed=%d, workers=%d)…\n", *scale, *weeks, *seed, *workers)
	start := time.Now()
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
	fmt.Fprintln(os.Stderr)

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("table1") {
		fmt.Println(analysis.RenderTable1(analysis.Table1(res)))
	}
	if want("figure1") {
		buckets, series := analysis.Figure1(res)
		fmt.Println(analysis.CDFTable("Figure 1: Difference in registration time per RDAP vs. CT logs (CDF)", buckets, series))
		w15, w45, med := analysis.Figure1Headline(res)
		fmt.Printf("headline: %.0f%% within 15m, %.0f%% within 45m, median %v (paper: ≈30%%, ≈50%%)\n\n",
			100*w15, 100*w45, med.Round(time.Second))
		writeCSV(*csvDir, "figure1.csv", buckets, series)
	}
	if want("nsstability") {
		kept, total := analysis.NSStability(res)
		fmt.Printf("§4.1 NS stability: %d/%d (%s) kept initial NS infrastructure for 24h (paper: 97.5%%)\n\n",
			kept, total, analysis.Pct(kept, total))
	}
	if want("table2") {
		fmt.Println(analysis.RenderTable2(analysis.Table2(res)))
		fmt.Printf("transient share of NRDs: %s (paper: ≈1%%)\n\n",
			analysis.Pct(len(res.Report.LowerBound), res.Pipeline.Len()))
	}
	if want("rdapfail") {
		s := analysis.RDAPFailureStats(res)
		fmt.Printf("§4.2 RDAP failures: NRDs %s (paper ≈3%%); transients %s (paper ≈34%%)\n",
			analysis.Pct(s.NRDFailed, s.NRDTotal), analysis.Pct(s.TransFailed, s.TransTotal))
		fmt.Printf("     RDAP-failed transients with historical zone presence: %s (paper ≈97%%)\n",
			analysis.Pct(s.FailedHistoric, s.TransFailed))
		fmt.Printf("     confirmed transients: %d of %d lower bound (paper: 42,358 of 68,042)\n\n",
			len(res.Report.Confirmed), len(res.Report.LowerBound))
	}
	if want("figure2") {
		buckets, series, cdf := analysis.Figure2(res)
		fmt.Println(analysis.CDFTable("Figure 2: Lifetime of transient domain names (CDF)", buckets, []analysis.Series{series}))
		fmt.Printf("headline: %.0f%% die within 6h (paper: >50%%), median %v, n=%d\n\n",
			100*cdf.At(6*time.Hour), cdf.Quantile(0.5).Round(time.Minute), cdf.Len())
		writeCSV(*csvDir, "figure2.csv", buckets, []analysis.Series{series})
	}
	if want("table3") {
		fmt.Println(analysis.RenderShares("Table 3: Top 10 Transient Domain Registrars", analysis.Table3(res)))
	}
	if want("table4") {
		fmt.Println(analysis.RenderShares("Table 4: Top 5 DNS Hosting (NS record SLDs) of Transient Domains", analysis.Table4(res)))
	}
	if want("table5") {
		fmt.Println(analysis.RenderShares("Table 5: Top 5 Web Hosting (A record ASNs) of Transient Domains", analysis.Table5(res)))
	}
	if want("blocklists") {
		pollEnd := res.WindowEnd.Add(90 * 24 * time.Hour)
		early, trans := analysis.BlocklistCoverage(res, pollEnd)
		fmt.Printf("§4.3 blocklists (polling through %s):\n", pollEnd.Format("2006-01-02"))
		printBlocklistStats("early-removed NRDs", early, "6.6%", "92% active / 3% before / 5% after")
		printBlocklistStats("transient domains", trans, "5%", "5% same-day / 1% before / 94% after")
		fmt.Println()
	}
	if want("nod") {
		day := res.WindowStart.Add(14 * 24 * time.Hour)
		cmp := analysis.CompareNOD(res, day)
		ct := cmp.Both + cmp.CTOnly
		nod := cmp.Both + cmp.NODOnly
		fmt.Printf("§4.4 SIE-NOD comparison (day %s):\n", day.Format("2006-01-02"))
		fmt.Printf("  CT feed: %d   NOD feed: %d (ratio %.2f, paper ≈1.05)\n", ct, nod, ratio(nod, ct))
		fmt.Printf("  overlap: %d (%.0f%% of CT, paper ≈60%%)\n", cmp.Both, 100*ratio(cmp.Both, ct))
		fmt.Printf("  transients: CT %d, NOD %d, both %d, union %d (both/union %.0f%%, paper ≈33%%)\n\n",
			cmp.TransCT, cmp.TransNOD, cmp.TransBoth, cmp.TransUnion, 100*ratio(cmp.TransBoth, cmp.TransUnion))
	}
	if want("cctld") {
		cc := analysis.CCTLDGroundTruth(res)
		fmt.Printf("§4.4 ccTLD (.%s) ground truth:\n", cc.TLD)
		fmt.Printf("  fast-deleted (<24h) in registry ledger: %d (paper: 714)\n", cc.FastDeleted)
		fmt.Printf("  never captured in zone files:           %d (paper: 334)\n", cc.NeverInZone)
		fmt.Printf("  detected by CT pipeline:                %d (paper: 99)\n", cc.PipelineFound)
		fmt.Printf("  recall: %.1f%% (paper: 29.6%%)\n\n", 100*cc.Recall)
	}
	if want("rzu") {
		fmt.Println("§5 extension — rapid zone update what-if (fast-deleted gTLD domains):")
		for _, iv := range []time.Duration{5 * time.Minute, time.Hour, 24 * time.Hour} {
			r := analysis.RZUWhatIf(res, iv)
			fmt.Printf("  %-6s updates: %4d of %4d visible (%s); CT caught %d; RZU-only gain %d\n",
				iv, r.RZUVisible, r.FastDeleted, analysis.Pct(r.RZUVisible, r.FastDeleted),
				r.CTDetected, r.RZUOnlyExtra)
		}
		fmt.Println()
	}
	if want("mail") {
		m := analysis.MailStats(res)
		fmt.Println("§5 extension — mail infrastructure (MX/SPF) adoption:")
		fmt.Printf("  long-lived NRDs: MX %s, SPF %s (n=%d)\n",
			analysis.Pct(m.NormalMX, m.NormalTotal), analysis.Pct(m.NormalSPF, m.NormalTotal), m.NormalTotal)
		fmt.Printf("  transients:      MX %s, SPF %s (n=%d)\n\n",
			analysis.Pct(m.TransientMX, m.TransientTotal), analysis.Pct(m.TransientSPF, m.TransientTotal), m.TransientTotal)
	}
	if *exp != "all" && !knownExp(*exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// writeCSV dumps a figure to dir/name when -csv is set.
func writeCSV(dir, name string, buckets []time.Duration, series []analysis.Series) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		return
	}
	f, err := os.Create(dir + "/" + name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		return
	}
	defer f.Close()
	if err := analysis.WriteFigureCSV(f, buckets, series); err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
	}
}

func printBlocklistStats(label string, s analysis.BlocklistStats, paperRate, paperTiming string) {
	fmt.Printf("  %s: %d flagged of %d (%s; paper %s)\n", label, s.Flagged, s.Population,
		analysis.Pct(s.Flagged, s.Population), paperRate)
	if s.Flagged > 0 {
		fmt.Printf("    timing: %d before-reg, %d same-day, %d active, %d post-deletion (paper: %s)\n",
			s.Timing[blocklist.BeforeRegistration], s.Timing[blocklist.OnRegistrationDay],
			s.Timing[blocklist.WhileActive], s.Timing[blocklist.AfterDeletion], paperTiming)
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func knownExp(e string) bool {
	known := "table1 figure1 nsstability table2 rdapfail figure2 table3 table4 table5 blocklists nod cctld rzu mail all"
	for _, k := range strings.Fields(known) {
		if e == k {
			return true
		}
	}
	return false
}
