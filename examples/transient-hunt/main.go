// Transient-hunt: the paper's motivating scenario. Malicious domains are
// registered, certified, abused and taken down within hours — before the
// daily zone snapshot, and long before blocklists react. This example
// detects them live from the CT feed and shows how late the blocklist
// ecosystem is for each one.
package main

import (
	"fmt"
	"sort"
	"time"

	"darkdns/internal/analysis"
	"darkdns/internal/blocklist"
)

func main() {
	res := analysis.Run(analysis.RunConfig{Seed: 99, Scale: 0.003, Weeks: 4, WatchSampleRate: 1.0})

	report := res.Report
	fmt.Printf("confirmed transient domains: %d\n", len(report.Confirmed))
	fmt.Printf("ground-truth fast-deleted registrations: %d (detection is a lower bound)\n\n",
		analysis.GroundTruthTransientCount(res.World))

	// For each confirmed transient: lifetime vs blocklist reaction.
	pollEnd := res.WindowEnd.Add(90 * 24 * time.Hour)
	type finding struct {
		domain    string
		lifetime  time.Duration
		flaggedBy string
		flagLag   time.Duration // first flag − deletion; negative = while alive
	}
	var flagged []finding
	neverFlagged := 0
	for _, c := range report.Confirmed {
		gt := res.World.Domains.Get(c.Domain)
		if gt == nil {
			continue
		}
		deleted := gt.Created.Add(gt.Lifetime)
		f, ok := res.World.Blocklists.FirstListed(c.Domain, pollEnd)
		if !ok {
			neverFlagged++
			continue
		}
		flagged = append(flagged, finding{
			domain: c.Domain, lifetime: gt.Lifetime,
			flaggedBy: f.List, flagLag: f.At.Sub(deleted),
		})
	}
	sort.Slice(flagged, func(i, j int) bool { return flagged[i].flagLag > flagged[j].flagLag })

	fmt.Printf("blocklists never flagged %d of %d confirmed transients (paper: ~95%%)\n\n",
		neverFlagged, len(report.Confirmed))
	fmt.Println("the ones blocklists did catch, and how late:")
	for i, f := range flagged {
		if i >= 10 {
			break
		}
		when := "AFTER deletion"
		if f.flagLag < 0 {
			when = "while alive"
		}
		fmt.Printf("  %-26s lived %-8v first flag %-18s %v %s\n",
			f.domain, f.lifetime.Round(time.Minute), f.flaggedBy,
			f.flagLag.Round(time.Hour), when)
	}

	// The takeaway statistic of §4.3: flags land post-mortem.
	trans := analysis.Reduce(res).TransientFlags
	if trans.Flagged > 0 {
		post := trans.Timing[blocklist.AfterDeletion]
		fmt.Printf("\nof %d flagged transients, %d (%s) were flagged only after deletion (paper: 94%%)\n",
			trans.Flagged, post, analysis.Pct(post, trans.Flagged))
	}
	fmt.Println("\nrapid zone updates would surface these domains at registration time —")
	fmt.Println("the visibility gap this library exists to quantify.")
}
