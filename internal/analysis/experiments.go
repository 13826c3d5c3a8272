package analysis

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"darkdns/internal/asdb"
	"darkdns/internal/blocklist"
	"darkdns/internal/core"
	"darkdns/internal/measure"
	"darkdns/internal/psl"
	"darkdns/internal/worldsim"
)

// ---------------------------------------------------------------------------
// E1 — Table 1: newly registered domains per TLD, and E4 — Table 2:
// transient domains per TLD and month.

// TLDRow is one TLD's row of Table 1 or Table 2: its candidates per
// 30-day month of the window and in total, and the candidates detected
// before their name's first zone diff. Table 1 adds the zone-diff NRD
// baseline and the coverage ratio.
type TLDRow struct {
	TLD      string
	Monthly  [3]int
	Total    int
	Detected int     // candidates that later appeared in zone diffs
	ZoneNRD  int     // Table 1 only
	Coverage float64 // Table 1 only: Detected / ZoneNRD
}

func (row *TLDRow) add(o TLDRow) {
	for m := range row.Monthly {
		row.Monthly[m] += o.Monthly[m]
	}
	row.Total += o.Total
	row.Detected += o.Detected
	row.ZoneNRD += o.ZoneNRD
}

// tldRows tallies cands by TLD and month, largest TLD first, keeping only
// the TLDs in keep when keep is set.
func tldRows(r *Results, cands []core.Candidate, keep map[string]bool) []TLDRow {
	perTLD := make(map[string]*TLDRow)
	for _, c := range cands {
		if keep != nil && !keep[c.TLD] {
			continue
		}
		row := perTLD[c.TLD]
		if row == nil {
			row = &TLDRow{TLD: strings.Clone(c.TLD)}
			perTLD[c.TLD] = row
		}
		row.Monthly[r.monthIndex(c.SeenAt)]++
		row.Total++
		if r.Pipeline.DetectedBeforeZone(c) {
			row.Detected++
		}
	}
	rows := make([]TLDRow, 0, len(perTLD))
	for _, row := range perTLD {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Total != rows[j].Total {
			return rows[i].Total > rows[j].Total
		}
		return rows[i].TLD < rows[j].TLD
	})
	return rows
}

// table1 reproduces Table 1: CT-detected NRDs per TLD and month, the
// zone-diff NRD baseline, and the coverage ratio. Only TLDs present in
// the CZDS collection appear — the paper's Table 1 is gTLD-only because
// there is no zone baseline for ccTLDs.
func table1(r *Results) []TLDRow {
	collected := make(map[string]bool)
	for _, tld := range r.World.CZDS.TLDs() {
		collected[tld] = true
	}
	rows := tldRows(r, r.Candidates(), collected)
	for i := range rows {
		row := &rows[i]
		row.ZoneNRD = int(r.World.CZDS.Stats(row.TLD).Added)
		if row.ZoneNRD > 0 {
			row.Coverage = float64(row.Detected) / float64(row.ZoneNRD)
		}
	}
	return rows
}

// table2 reproduces Table 2 over the pipeline's transient lower bound.
func table2(r *Results) []TLDRow { return tldRows(r, r.Report.LowerBound, nil) }

// renderTLDTable renders Table 1 (zone: with the zone baseline and
// coverage columns) or Table 2 in the paper's layout, aggregating
// non-top-10 TLDs under "Others".
func renderTLDTable(title string, rows []TLDRow, zone bool) string {
	t := &Table{Title: title, Headers: []string{"TLD", "Nov", "Dec", "Jan", "Total"}}
	if zone {
		t.Headers = append(t.Headers, "Zone NRD", "Coverage")
	}
	others, total := TLDRow{TLD: "Others"}, TLDRow{TLD: "Total"}
	for i, row := range rows {
		if i >= 10 {
			others.add(row)
		}
		total.add(row)
	}
	emit := func(row TLDRow) {
		cells := []string{row.TLD, Count(row.Monthly[0]), Count(row.Monthly[1]), Count(row.Monthly[2]), Count(row.Total)}
		if zone {
			cov := "n/a"
			if row.ZoneNRD > 0 {
				cov = fmt.Sprintf("%.1f%%", 100*float64(row.Detected)/float64(row.ZoneNRD))
			}
			cells = append(cells, Count(row.ZoneNRD), cov)
		}
		t.AddRow(cells...)
	}
	for _, row := range rows[:min(len(rows), 10)] {
		emit(row)
	}
	if others.Total > 0 {
		emit(others)
	}
	emit(total)
	return t.Render()
}

// ---------------------------------------------------------------------------
// E2 — Figure 1: detection delay CDF per TLD.

// figure1 computes per-TLD CDFs of SeenAt−Registered for validated
// candidates, evaluated at the paper's bucket boundaries, for the eight
// TLDs with the most samples and an "All" series, whose CDF it also
// returns for the §4.1 headline.
func figure1(r *Results) (Figure, *CDF) {
	type sample struct {
		tld   string
		delay time.Duration
	}
	cands := r.Candidates()
	samples := make([]sample, 0, len(cands))
	for _, c := range cands {
		if c.RDAPOutcome == core.RDAPOK && c.Validated {
			samples = append(samples, sample{c.TLD, max(c.DetectionDelay(), 0)})
		}
	}
	// Sorted by TLD, then delay, each TLD's samples are one ascending run.
	slices.SortFunc(samples, func(a, b sample) int {
		if c := strings.Compare(a.tld, b.tld); c != 0 {
			return c
		}
		return cmp.Compare(a.delay, b.delay)
	})
	type run struct {
		tld    string
		lo, hi int
	}
	var runs []run
	delays := make([]time.Duration, len(samples))
	for i, s := range samples {
		delays[i] = s.delay
		if len(runs) == 0 || runs[len(runs)-1].tld != s.tld {
			runs = append(runs, run{tld: s.tld, lo: i})
		}
		runs[len(runs)-1].hi = i + 1
	}
	slices.SortFunc(runs, func(a, b run) int {
		if n := (b.hi - b.lo) - (a.hi - a.lo); n != 0 {
			return n
		}
		return strings.Compare(a.tld, b.tld)
	})
	fig := Figure{Buckets: Figure1Buckets}
	for _, run := range runs[:min(len(runs), 8)] {
		fig.Series = append(fig.Series, cdfSeries(strings.Clone(run.tld), &CDF{sorted: delays[run.lo:run.hi]}, Figure1Buckets))
	}
	all := NewCDF(delays)
	fig.Series = append(fig.Series, cdfSeries("All", all, Figure1Buckets))
	return fig, all
}

// cdfSeries evaluates cdf at every bucket.
func cdfSeries(name string, cdf *CDF, buckets []time.Duration) Series {
	s := Series{Name: name, Values: make([]float64, len(buckets))}
	for i, b := range buckets {
		s.Values[i] = cdf.At(b)
	}
	return s
}

// ---------------------------------------------------------------------------
// E3 — §4.1: NS infrastructure stability in the first 24 hours.

// nsStability counts the watched candidates that kept their initial
// nameserver set through their first 24 hours (paper: 97.5 %).
func nsStability(states []*measure.DomainState) (kept, total int) {
	for _, st := range states {
		if !st.EverInZone {
			continue
		}
		total++
		if !st.NSChanged || st.NSChangedAt.Sub(st.Started) > 24*time.Hour {
			kept++
		}
	}
	return kept, total
}

// ---------------------------------------------------------------------------
// E5 — §4.2: RDAP failure asymmetry and the DZDB historical check.

// RDAPStats is the §4.2 failure accounting.
type RDAPStats struct {
	NRDTotal       int
	NRDFailed      int
	TransTotal     int
	TransFailed    int
	FailedHistoric int // RDAP-failed transients present in DZDB history
}

// rdapFailureStats computes failure rates for all candidates vs transient
// candidates, and how many failed transients existed in historical zone
// data (paper: ≈3 %, ≈34 %, ≈97 %).
func rdapFailureStats(r *Results) RDAPStats {
	var s RDAPStats
	for _, c := range r.Candidates() {
		s.NRDTotal++
		if c.RDAPOutcome != core.RDAPOK {
			s.NRDFailed++
		}
	}
	s.TransTotal = len(r.Report.LowerBound)
	for _, c := range r.Report.RDAPFailed {
		s.TransFailed++
		if r.World.CZDS.ExistedBefore(c.Domain, c.SeenAt) {
			s.FailedHistoric++
		}
	}
	return s
}

// ---------------------------------------------------------------------------
// E6 — Figure 2: transient domain lifetimes.

// figure2 computes the lifetime CDF of confirmed transients: last valid
// NS response minus RDAP registration time (§4.2.1).
func figure2(r *Results, states []*measure.DomainState) (Figure, *CDF) {
	var lifetimes []time.Duration
	for _, c := range r.Report.Confirmed {
		st := stateOf(states, c.Domain)
		if st == nil || !st.EverInZone || st.LastAliveAt.IsZero() {
			continue
		}
		lifetimes = append(lifetimes, max(st.LastAliveAt.Sub(c.Registered), 0))
	}
	cdf := NewCDF(lifetimes)
	return Figure{Buckets: Figure2Buckets, Series: []Series{cdfSeries("transients", cdf, Figure2Buckets)}}, cdf
}

// stateOf finds domain's state in states, which Fleet.StateView sorts by
// domain, or returns nil.
func stateOf(states []*measure.DomainState, domain string) *measure.DomainState {
	if st := byDomain(states, domain, func(st **measure.DomainState) string { return (*st).Domain }); st != nil {
		return *st
	}
	return nil
}

// ---------------------------------------------------------------------------
// E7 — Table 3: registrars of transient domains.

// ShareRow is a name/count/share row used by Tables 3–5.
type ShareRow struct {
	Name  string
	Count int
	Share float64
}

// table3 computes the registrar distribution over confirmed transients
// (the paper's Table 3 uses RDAP registrar identity).
func table3(r *Results) []ShareRow {
	return confirmedShares(r, 10, func(c *core.Candidate) string { return c.Registrar })
}

// ---------------------------------------------------------------------------
// E8 — Table 4: DNS hosting (NS record SLDs) of transient domains.

// table4 computes the NS-record SLD distribution over confirmed
// transients from the measurement fleet's first-probe delegations.
func table4(r *Results, states []*measure.DomainState) []ShareRow {
	list := psl.Default()
	return confirmedShares(r, 5, func(c *core.Candidate) string {
		st := stateOf(states, c.Domain)
		if st == nil || len(st.FirstNS) == 0 {
			return ""
		}
		if sld, ok := list.RegisteredDomain(st.FirstNS[0]); ok {
			return sld
		}
		return st.FirstNS[0]
	})
}

// ---------------------------------------------------------------------------
// E9 — Table 5: web hosting (A-record ASNs) of transient domains.

// table5 computes the A-record origin-AS distribution over confirmed
// transients.
func table5(r *Results, states []*measure.DomainState) []ShareRow {
	db := asdb.Default()
	return confirmedShares(r, 5, func(c *core.Candidate) string {
		st := stateOf(states, c.Domain)
		if st == nil || len(st.FirstV4) == 0 {
			return ""
		}
		as, err := db.Lookup(st.FirstV4[0])
		if err != nil {
			return "unrouted"
		}
		return fmt.Sprintf("AS%d %s", as.Number, as.Name)
	})
}

// confirmedShares tallies the confirmed transients by the name label
// gives each (none when it gives ""): the top names by count, then
// "Others".
func confirmedShares(r *Results, top int, label func(c *core.Candidate) string) []ShareRow {
	counts := make(map[string]int)
	total := 0
	for i := range r.Report.Confirmed {
		if name := label(&r.Report.Confirmed[i]); name != "" {
			counts[name]++
			total++
		}
	}
	// "Others" (whether a pre-aggregated catalog bucket or our own
	// overflow) always renders last, as in the paper's tables.
	others := ShareRow{Name: "Others", Count: counts["Others"]}
	rows := make([]ShareRow, 0, len(counts))
	for name, n := range counts {
		if name == "Others" {
			continue
		}
		rows = append(rows, ShareRow{Name: strings.Clone(name), Count: n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Name < rows[j].Name
	})
	if len(rows) > top {
		for _, row := range rows[top:] {
			others.Count += row.Count
		}
		rows = rows[:top]
	}
	rows = append(rows, others)
	if total > 0 {
		for i := range rows {
			rows[i].Share = float64(rows[i].Count) / float64(total)
		}
	}
	return rows
}

// renderShares renders a Table 3/4/5-style distribution.
func renderShares(title string, rows []ShareRow) string {
	t := &Table{Title: title, Headers: []string{"Name", "Domains", "%"}}
	total := 0
	for _, row := range rows {
		t.AddRow(row.Name, Count(row.Count), fmt.Sprintf("%.1f%%", 100*row.Share))
		total += row.Count
	}
	t.AddRow("Total", Count(total), "-")
	return t.Render()
}

// ---------------------------------------------------------------------------
// E10 — §4.3: blocklist coverage and flag timing.

// BlocklistStats is the §4.3 accounting for one population.
type BlocklistStats struct {
	Population int
	Flagged    int
	Timing     [blocklist.AfterDeletion + 1]int // flagged domains by blocklist.Timing
}

// blocklistCoverage classifies blocklist flags for (a) early-removed NRDs
// and (b) confirmed transients, polling through pollEnd (the paper
// extends polling ~3 months past the window).
func blocklistCoverage(r *Results, pollEnd time.Time) (earlyRemoved, transients BlocklistStats) {
	agg := r.World.Blocklists

	// Early-removed: ground-truth domains deleted before window end but
	// visible in snapshots (not fast-deleted).
	r.World.Domains.Range(func(d *worldsim.Domain) {
		if d.FastDelete || d.Lifetime == 0 {
			return
		}
		deleted := d.Created.Add(d.Lifetime)
		if deleted.After(r.WindowEnd) {
			return
		}
		earlyRemoved.Population++
		tm := agg.Classify(d.Name, d.Created, deleted, pollEnd)
		if tm != blocklist.NotFlagged {
			earlyRemoved.Flagged++
			earlyRemoved.Timing[tm]++
		}
	})

	for _, c := range r.Report.Confirmed {
		transients.Population++
		gt := r.World.Domains.Get(c.Domain)
		if gt == nil {
			continue
		}
		deleted := gt.Created.Add(gt.Lifetime)
		tm := agg.Classify(c.Domain, gt.Created, deleted, pollEnd)
		if tm != blocklist.NotFlagged {
			transients.Flagged++
			transients.Timing[tm]++
		}
	}
	return earlyRemoved, transients
}

// ---------------------------------------------------------------------------
// E11 — §4.4: SIE-NOD feed comparison over one day.

// NODComparison is the one-day feed overlap accounting.
type NODComparison struct {
	Day        string // the compared day, as a date
	CTOnly     int
	NODOnly    int
	Both       int
	TransCT    int
	TransNOD   int
	TransBoth  int
	TransUnion int
}

// compareNOD reproduces the §4.4 one-day comparison: NRDs registered on
// the chosen day detected by the CT pipeline vs the passive-DNS feed, and
// the same comparison restricted to transient (fast-deleted) domains.
func compareNOD(r *Results, day time.Time) NODComparison {
	cmp := NODComparison{Day: day.Format(time.DateOnly)}
	dayEnd := day.Add(24 * time.Hour)
	r.World.Domains.Range(func(d *worldsim.Domain) {
		if d.Ghost || d.Created.Before(day) || !d.Created.Before(dayEnd) {
			return
		}
		_, nod := r.World.NOD.DetectedAt(d.Name)
		c := r.candidate(d.Name)
		ct := c != nil && c.RDAPOutcome == core.RDAPOK && !c.Registered.Before(day) && c.Registered.Before(dayEnd)
		switch {
		case ct && nod:
			cmp.Both++
		case ct:
			cmp.CTOnly++
		case nod:
			cmp.NODOnly++
		}
		if d.FastDelete {
			if ct {
				cmp.TransCT++
			}
			if nod {
				cmp.TransNOD++
			}
			if ct && nod {
				cmp.TransBoth++
			}
			if ct || nod {
				cmp.TransUnion++
			}
		}
	})
	return cmp
}

// ---------------------------------------------------------------------------
// E12 — §4.4: ccTLD registry ground truth.

// CCTLDResult is the .nl ground-truth comparison.
type CCTLDResult struct {
	TLD           string
	FastDeleted   int // registry ledger: deleted within 24 h
	NeverInZone   int // of those, never in any registry zone file
	PipelineFound int // never-in-zone domains the CT pipeline detected
	Recall        float64
}

// ccTLDGroundTruth reproduces the .nl experiment: the registry's private
// ledger and zone files define ground truth; the pipeline's CT-based
// candidates are measured against it (paper: 714 / 334 / 99 ≈ 29.6 %).
// It only counts, so it walks the ledger in place, in no order.
func ccTLDGroundTruth(r *Results) CCTLDResult {
	tld := r.World.Cfg.CCTLD.TLD
	res := CCTLDResult{TLD: tld}
	reg := r.World.Registries[tld]
	for entry := range reg.Ledger() {
		if entry.Deleted.IsZero() || entry.Deleted.Sub(entry.Created) >= 24*time.Hour {
			continue
		}
		res.FastDeleted++
		if r.World.CCZones.EverSeen(entry.Domain, entry.Created.Add(-24*time.Hour), r.WindowEnd.Add(3*24*time.Hour)) {
			continue // captured by a registry zone file
		}
		res.NeverInZone++
		if c := r.candidate(entry.Domain); c != nil && c.TLD == tld {
			res.PipelineFound++
		}
	}
	if res.NeverInZone > 0 {
		res.Recall = float64(res.PipelineFound) / float64(res.NeverInZone)
	}
	return res
}

// ---------------------------------------------------------------------------

// GroundTruthTransientCount counts world domains that are fast-deleted —
// the denominator for coverage discussions (not observable by the
// pipeline).
func GroundTruthTransientCount(w *worldsim.World) int {
	n := 0
	w.Domains.Range(func(d *worldsim.Domain) {
		if d.FastDelete {
			n++
		}
	})
	return n
}
