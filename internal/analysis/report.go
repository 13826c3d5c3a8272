package analysis

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"

	"darkdns/internal/blocklist"
)

// paper holds the values the paper reports, as it words them, for the
// report to print beside the reproduced ones.
var paper = struct {
	Within15m, Within45m, NSKept, TransientShare       string
	NRDRDAPFailed, TransientRDAPFailed, FailedHistoric string
	Confirmed, LowerBound, Within6h                    string
	EarlyFlagged, EarlyTiming                          string
	TransientFlagged, TransientTiming                  string
	NODRatio, NODOverlap, NODTransientsBoth            string
	CCFastDeleted, CCNeverInZone, CCDetected, CCRecall string
}{
	Within15m: "≈30%", Within45m: "≈50%", NSKept: "97.5%", TransientShare: "≈1%",
	NRDRDAPFailed: "≈3%", TransientRDAPFailed: "≈34%", FailedHistoric: "≈97%",
	Confirmed: "42,358", LowerBound: "68,042", Within6h: ">50%",
	EarlyFlagged: "6.6%", EarlyTiming: "92% active / 3% before / 5% after",
	TransientFlagged: "5%", TransientTiming: "5% same-day / 1% before / 94% after",
	NODRatio: "≈1.05", NODOverlap: "≈60%", NODTransientsBoth: "≈33%",
	CCFastDeleted: "714", CCNeverInZone: "334", CCDetected: "99", CCRecall: "29.6%",
}

// sections are the report's parts in print order, each named as
// cmd/reproduce's -exp selects it.
var sections = []struct {
	name   string
	render func(b *bytes.Buffer, o *Outcome)
}{
	{"table1", func(b *bytes.Buffer, o *Outcome) {
		fmt.Fprintln(b, renderTLDTable("Table 1: Top TLDs by newly registered domains (NRDs)", o.Table1, true))
	}},
	{"figure1", func(b *bytes.Buffer, o *Outcome) {
		fmt.Fprintln(b, cdfTable("Figure 1: Difference in registration time per RDAP vs. CT logs (CDF)", o.Figure1))
		fmt.Fprintf(b, "headline: %.0f%% within 15m, %.0f%% within 45m, median %v (paper: %s, %s)\n\n",
			100*o.Within15m, 100*o.Within45m, o.MedianDelay.Round(time.Second), paper.Within15m, paper.Within45m)
	}},
	{"nsstability", func(b *bytes.Buffer, o *Outcome) {
		fmt.Fprintf(b, "§4.1 NS stability: %d/%d (%s) kept initial NS infrastructure for 24h (paper: %s)\n\n",
			o.NSKept, o.NSWatched, Pct(o.NSKept, o.NSWatched), paper.NSKept)
	}},
	{"table2", func(b *bytes.Buffer, o *Outcome) {
		fmt.Fprintln(b, renderTLDTable("Table 2: Transient domain names observed", o.Table2, false))
		fmt.Fprintf(b, "transient share of NRDs: %s (paper: %s)\n\n", Pct(o.LowerBound, o.Candidates), paper.TransientShare)
	}},
	{"rdapfail", func(b *bytes.Buffer, o *Outcome) {
		s := o.RDAP
		fmt.Fprintf(b, "§4.2 RDAP failures: NRDs %s (paper %s); transients %s (paper %s)\n",
			Pct(s.NRDFailed, s.NRDTotal), paper.NRDRDAPFailed, Pct(s.TransFailed, s.TransTotal), paper.TransientRDAPFailed)
		fmt.Fprintf(b, "     RDAP-failed transients with historical zone presence: %s (paper %s)\n",
			Pct(s.FailedHistoric, s.TransFailed), paper.FailedHistoric)
		fmt.Fprintf(b, "     confirmed transients: %d of %d lower bound (paper: %s of %s)\n\n",
			o.Confirmed, o.LowerBound, paper.Confirmed, paper.LowerBound)
	}},
	{"figure2", func(b *bytes.Buffer, o *Outcome) {
		fmt.Fprintln(b, cdfTable("Figure 2: Lifetime of transient domain names (CDF)", o.Figure2))
		fmt.Fprintf(b, "headline: %.0f%% die within 6h (paper: %s), median %v, n=%d\n\n",
			100*o.Within6h, paper.Within6h, o.MedianLifetime.Round(time.Minute), o.Lifetimes)
	}},
	{"table3", func(b *bytes.Buffer, o *Outcome) {
		fmt.Fprintln(b, renderShares("Table 3: Top 10 Transient Domain Registrars", o.Table3))
	}},
	{"table4", func(b *bytes.Buffer, o *Outcome) {
		fmt.Fprintln(b, renderShares("Table 4: Top 5 DNS Hosting (NS record SLDs) of Transient Domains", o.Table4))
	}},
	{"table5", func(b *bytes.Buffer, o *Outcome) {
		fmt.Fprintln(b, renderShares("Table 5: Top 5 Web Hosting (A record ASNs) of Transient Domains", o.Table5))
	}},
	{"blocklists", func(b *bytes.Buffer, o *Outcome) {
		fmt.Fprintf(b, "§4.3 blocklists (polling through %s):\n", o.PollEnd)
		writeBlocklistStats(b, "early-removed NRDs", o.EarlyRemoved, paper.EarlyFlagged, paper.EarlyTiming)
		writeBlocklistStats(b, "transient domains", o.TransientFlags, paper.TransientFlagged, paper.TransientTiming)
		fmt.Fprintln(b)
	}},
	{"nod", func(b *bytes.Buffer, o *Outcome) {
		cmp := o.NOD
		ct, nod := cmp.Both+cmp.CTOnly, cmp.Both+cmp.NODOnly
		fmt.Fprintf(b, "§4.4 SIE-NOD comparison (day %s):\n", cmp.Day)
		fmt.Fprintf(b, "  CT feed: %d   NOD feed: %d (ratio %.2f, paper %s)\n", ct, nod, ratio(nod, ct), paper.NODRatio)
		fmt.Fprintf(b, "  overlap: %d (%.0f%% of CT, paper %s)\n", cmp.Both, 100*ratio(cmp.Both, ct), paper.NODOverlap)
		fmt.Fprintf(b, "  transients: CT %d, NOD %d, both %d, union %d (both/union %.0f%%, paper %s)\n\n",
			cmp.TransCT, cmp.TransNOD, cmp.TransBoth, cmp.TransUnion, 100*ratio(cmp.TransBoth, cmp.TransUnion), paper.NODTransientsBoth)
	}},
	{"cctld", func(b *bytes.Buffer, o *Outcome) {
		cc := o.CCTLD
		fmt.Fprintf(b, "§4.4 ccTLD (.%s) ground truth:\n", cc.TLD)
		fmt.Fprintf(b, "  fast-deleted (<24h) in registry ledger: %d (paper: %s)\n", cc.FastDeleted, paper.CCFastDeleted)
		fmt.Fprintf(b, "  never captured in zone files:           %d (paper: %s)\n", cc.NeverInZone, paper.CCNeverInZone)
		fmt.Fprintf(b, "  detected by CT pipeline:                %d (paper: %s)\n", cc.PipelineFound, paper.CCDetected)
		fmt.Fprintf(b, "  recall: %.1f%% (paper: %s)\n\n", 100*cc.Recall, paper.CCRecall)
	}},
	{"rzu", func(b *bytes.Buffer, o *Outcome) {
		fmt.Fprintln(b, "§5 extension — rapid zone update what-if (fast-deleted gTLD domains):")
		for _, r := range o.RZU {
			fmt.Fprintf(b, "  %-6s updates: %4d of %4d visible (%s); CT caught %d; RZU-only gain %d\n",
				r.Interval, r.RZUVisible, r.FastDeleted, Pct(r.RZUVisible, r.FastDeleted), r.CTDetected, r.RZUOnlyExtra)
		}
		fmt.Fprintln(b)
	}},
	{"mail", func(b *bytes.Buffer, o *Outcome) {
		m := o.Mail
		fmt.Fprintln(b, "§5 extension — mail infrastructure (MX/SPF) adoption:")
		fmt.Fprintf(b, "  long-lived NRDs: MX %s, SPF %s (n=%d)\n",
			Pct(m.NormalMX, m.NormalTotal), Pct(m.NormalSPF, m.NormalTotal), m.NormalTotal)
		fmt.Fprintf(b, "  transients:      MX %s, SPF %s (n=%d)\n\n",
			Pct(m.TransientMX, m.TransientTotal), Pct(m.TransientSPF, m.TransientTotal), m.TransientTotal)
	}},
}

// Sections names the report's sections in print order.
func Sections() []string {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	return names
}

// WriteOutcome renders o to w as cmd/reproduce prints it: the paper's
// tables, figures and headline numbers, each beside the paper's own
// value. Named sections (see Sections) render alone, in print order; no
// name, or "all", renders every section. An unknown name writes nothing
// and returns an error.
func WriteOutcome(w io.Writer, o Outcome, names ...string) error {
	for _, name := range names {
		if name != "all" && !slices.Contains(Sections(), name) {
			return fmt.Errorf("analysis: unknown report section %q", name)
		}
	}
	all := len(names) == 0 || slices.Contains(names, "all")
	var b bytes.Buffer
	for _, s := range sections {
		if all || slices.Contains(names, s.name) {
			s.render(&b, &o)
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// WriteReport renders the complete evaluation of r to w. The performance
// ledger times it and hashes its bytes.
func WriteReport(w io.Writer, r *Results) error { return WriteOutcome(w, Reduce(r)) }

func writeBlocklistStats(b *bytes.Buffer, label string, s BlocklistStats, paperRate, paperTiming string) {
	fmt.Fprintf(b, "  %s: %d flagged of %d (%s; paper %s)\n", label, s.Flagged, s.Population,
		Pct(s.Flagged, s.Population), paperRate)
	if s.Flagged > 0 {
		fmt.Fprintf(b, "    timing: %d before-reg, %d same-day, %d active, %d post-deletion (paper: %s)\n",
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

// WriteFigureCSV emits a figure's series over its buckets as CSV, one row
// per bucket, for external plotting (the paper's figures are CDF plots).
func WriteFigureCSV(w io.Writer, f Figure) error {
	cw := csv.NewWriter(w)
	header := []string{"bucket_seconds", "bucket_label"}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, b := range f.Buckets {
		row := []string{strconv.FormatInt(int64(b.Seconds()), 10), FormatDuration(b)}
		for _, s := range f.Series {
			v := 0.0
			if i < len(s.Values) {
				v = s.Values[i]
			}
			row = append(row, strconv.FormatFloat(v, 'f', 4, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
