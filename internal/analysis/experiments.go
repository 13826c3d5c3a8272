package analysis

import (
	"fmt"
	"sort"
	"time"

	"darkdns/internal/asdb"
	"darkdns/internal/blocklist"
	"darkdns/internal/core"
	"darkdns/internal/dnsname"
	"darkdns/internal/psl"
	"darkdns/internal/worldsim"
)

// ---------------------------------------------------------------------------
// E1 — Table 1: newly registered domains per TLD.

// Table1Row is one TLD's NRD accounting.
type Table1Row struct {
	TLD      string
	Monthly  [3]int
	Total    int
	ZoneNRD  int
	Detected int     // candidates that later appeared in zone diffs
	Coverage float64 // Detected / ZoneNRD
}

// Table1 reproduces Table 1: CT-detected NRDs per TLD and month, the
// zone-diff NRD baseline, and the coverage ratio. Only TLDs present in
// the CZDS collection appear — the paper's Table 1 is gTLD-only because
// there is no zone baseline for ccTLDs.
func Table1(r *Results) []Table1Row {
	collected := make(map[string]bool)
	for _, tld := range r.World.CZDS.TLDs() {
		collected[tld] = true
	}
	perTLD := make(map[string]*Table1Row)
	for _, c := range r.candidates() {
		if !collected[c.TLD] {
			continue
		}
		row := perTLD[c.TLD]
		if row == nil {
			row = &Table1Row{TLD: c.TLD}
			perTLD[c.TLD] = row
		}
		row.Monthly[r.monthIndex(c.SeenAt)]++
		row.Total++
		if r.Pipeline.DetectedBeforeZone(c) {
			row.Detected++
		}
	}
	// The per-TLD tallies above are Pipeline.ZoneNRDCoverage's, counted in
	// the one pass over the candidates instead of one pass per TLD.
	var rows []Table1Row
	for tld, row := range perTLD {
		row.ZoneNRD = int(r.World.CZDS.Stats(tld).Added)
		if row.ZoneNRD > 0 {
			row.Coverage = float64(row.Detected) / float64(row.ZoneNRD)
		}
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

// RenderTable1 renders Table 1 in the paper's layout, aggregating
// non-top-10 TLDs under "Others".
func RenderTable1(rows []Table1Row) string {
	t := &Table{
		Title:   "Table 1: Top TLDs by newly registered domains (NRDs)",
		Headers: []string{"TLD", "Nov", "Dec", "Jan", "Total", "Zone NRD", "Coverage"},
	}
	top := rows
	if len(top) > 10 {
		top = rows[:10]
	}
	var others Table1Row
	others.TLD = "Others"
	for _, row := range rows[len(top):] {
		for m := 0; m < 3; m++ {
			others.Monthly[m] += row.Monthly[m]
		}
		others.Total += row.Total
		others.ZoneNRD += row.ZoneNRD
		others.Detected += row.Detected
	}
	var total Table1Row
	total.TLD = "Total"
	emit := func(row Table1Row) {
		cov := "n/a"
		if row.ZoneNRD > 0 {
			cov = fmt.Sprintf("%.1f%%", 100*float64(row.Detected)/float64(row.ZoneNRD))
		}
		t.AddRow(row.TLD, Count(row.Monthly[0]), Count(row.Monthly[1]), Count(row.Monthly[2]),
			Count(row.Total), Count(row.ZoneNRD), cov)
	}
	add := func(dst *Table1Row, row Table1Row) {
		for m := 0; m < 3; m++ {
			dst.Monthly[m] += row.Monthly[m]
		}
		dst.Total += row.Total
		dst.ZoneNRD += row.ZoneNRD
		dst.Detected += row.Detected
	}
	for _, row := range top {
		emit(row)
		add(&total, row)
	}
	if others.Total > 0 {
		emit(others)
		add(&total, others)
	}
	emit(total)
	return t.Render()
}

// ---------------------------------------------------------------------------
// E2 — Figure 1: detection delay CDF per TLD.

// Figure1 computes per-TLD CDFs of SeenAt−Registered for validated
// candidates, evaluated at the paper's bucket boundaries, plus an "All"
// series.
func Figure1(r *Results) (buckets []time.Duration, series []Series) {
	perTLD := make(map[string][]time.Duration)
	var all []time.Duration
	for _, c := range r.candidates() {
		if c.RDAPOutcome != core.RDAPOK || !c.Validated {
			continue
		}
		d := c.DetectionDelay()
		if d < 0 {
			d = 0
		}
		perTLD[c.TLD] = append(perTLD[c.TLD], d)
		all = append(all, d)
	}
	names := make([]string, 0, len(perTLD))
	for tld := range perTLD {
		names = append(names, tld)
	}
	sort.Slice(names, func(i, j int) bool {
		if len(perTLD[names[i]]) != len(perTLD[names[j]]) {
			return len(perTLD[names[i]]) > len(perTLD[names[j]])
		}
		return names[i] < names[j]
	})
	if len(names) > 8 {
		names = names[:8]
	}
	for _, tld := range names {
		cdf := NewCDF(perTLD[tld])
		s := Series{Name: tld}
		for _, b := range Figure1Buckets {
			s.Values = append(s.Values, cdf.At(b))
		}
		series = append(series, s)
	}
	allCDF := NewCDF(all)
	sAll := Series{Name: "All"}
	for _, b := range Figure1Buckets {
		sAll.Values = append(sAll.Values, allCDF.At(b))
	}
	series = append(series, sAll)
	return Figure1Buckets, series
}

// Figure1Headline returns the §4.1 headline quantiles over all validated
// candidates: the fraction detected within 15 and 45 minutes.
func Figure1Headline(r *Results) (within15m, within45m float64, median time.Duration) {
	var all []time.Duration
	for _, c := range r.candidates() {
		if c.RDAPOutcome == core.RDAPOK && c.Validated {
			d := c.DetectionDelay()
			if d < 0 {
				d = 0
			}
			all = append(all, d)
		}
	}
	cdf := NewCDF(all)
	return cdf.At(15 * time.Minute), cdf.At(45 * time.Minute), cdf.Quantile(0.5)
}

// ---------------------------------------------------------------------------
// E3 — §4.1: NS infrastructure stability in the first 24 hours.

// NSStability returns the fraction of watched candidates that kept their
// initial nameserver set through their first 24 hours (paper: 97.5 %).
func NSStability(r *Results) (kept, total int) {
	for _, st := range r.Fleet.States() {
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
// E4 — Table 2: transient domains per TLD and month.

// Table2Row is one TLD's transient accounting.
type Table2Row struct {
	TLD     string
	Monthly [3]int
	Total   int
}

// Table2 reproduces Table 2 over the pipeline's transient lower bound.
func Table2(r *Results) []Table2Row {
	perTLD := make(map[string]*Table2Row)
	for _, c := range r.Report.LowerBound {
		row := perTLD[c.TLD]
		if row == nil {
			row = &Table2Row{TLD: c.TLD}
			perTLD[c.TLD] = row
		}
		row.Monthly[r.monthIndex(c.SeenAt)]++
		row.Total++
	}
	var rows []Table2Row
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

// RenderTable2 renders Table 2 in the paper's layout.
func RenderTable2(rows []Table2Row) string {
	t := &Table{
		Title:   "Table 2: Transient domain names observed",
		Headers: []string{"TLD", "Nov", "Dec", "Jan", "Total"},
	}
	var total Table2Row
	top := rows
	if len(top) > 10 {
		top = rows[:10]
	}
	var others Table2Row
	others.TLD = "Others"
	for _, row := range rows[len(top):] {
		for m := 0; m < 3; m++ {
			others.Monthly[m] += row.Monthly[m]
		}
		others.Total += row.Total
	}
	emit := func(row Table2Row) {
		t.AddRow(row.TLD, Count(row.Monthly[0]), Count(row.Monthly[1]), Count(row.Monthly[2]), Count(row.Total))
	}
	for _, row := range top {
		emit(row)
		for m := 0; m < 3; m++ {
			total.Monthly[m] += row.Monthly[m]
		}
		total.Total += row.Total
	}
	if others.Total > 0 {
		emit(others)
		for m := 0; m < 3; m++ {
			total.Monthly[m] += others.Monthly[m]
		}
		total.Total += others.Total
	}
	total.TLD = "Total"
	emit(total)
	return t.Render()
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

// RDAPFailureStats computes failure rates for all candidates vs transient
// candidates, and how many failed transients existed in historical zone
// data (paper: ≈3 %, ≈34 %, ≈97 %).
func RDAPFailureStats(r *Results) RDAPStats {
	var s RDAPStats
	for _, c := range r.candidates() {
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

// Figure2 computes the lifetime CDF of confirmed transients: last valid
// NS response minus RDAP registration time (§4.2.1).
func Figure2(r *Results) (buckets []time.Duration, s Series, cdf *CDF) {
	var lifetimes []time.Duration
	for _, c := range r.Report.Confirmed {
		st, ok := r.Fleet.State(c.Domain)
		if !ok || !st.EverInZone || st.LastAliveAt.IsZero() {
			continue
		}
		lt := st.LastAliveAt.Sub(c.Registered)
		if lt < 0 {
			lt = 0
		}
		lifetimes = append(lifetimes, lt)
	}
	cdf = NewCDF(lifetimes)
	s = Series{Name: "transients"}
	for _, b := range Figure2Buckets {
		s.Values = append(s.Values, cdf.At(b))
	}
	return Figure2Buckets, s, cdf
}

// ---------------------------------------------------------------------------
// E7 — Table 3: registrars of transient domains.

// ShareRow is a name/count/share row used by Tables 3–5.
type ShareRow struct {
	Name  string
	Count int
	Share float64
}

// Table3 computes the registrar distribution over confirmed transients
// (the paper's Table 3 uses RDAP registrar identity).
func Table3(r *Results) []ShareRow {
	counts := make(map[string]int)
	total := 0
	for _, c := range r.Report.Confirmed {
		if c.Registrar == "" {
			continue
		}
		counts[c.Registrar]++
		total++
	}
	return shareRows(counts, total, 10)
}

// ---------------------------------------------------------------------------
// E8 — Table 4: DNS hosting (NS record SLDs) of transient domains.

// Table4 computes the NS-record SLD distribution over confirmed
// transients from the measurement fleet's first-probe delegations.
func Table4(r *Results) []ShareRow {
	list := psl.Default()
	counts := make(map[string]int)
	total := 0
	for _, c := range r.Report.Confirmed {
		st, ok := r.Fleet.State(c.Domain)
		if !ok || len(st.FirstNS) == 0 {
			continue
		}
		sld, ok := list.RegisteredDomain(st.FirstNS[0])
		if !ok {
			sld = st.FirstNS[0]
		}
		counts[sld]++
		total++
	}
	return shareRows(counts, total, 5)
}

// ---------------------------------------------------------------------------
// E9 — Table 5: web hosting (A-record ASNs) of transient domains.

// Table5 computes the A-record origin-AS distribution over confirmed
// transients.
func Table5(r *Results) []ShareRow {
	db := asdb.Default()
	counts := make(map[string]int)
	total := 0
	for _, c := range r.Report.Confirmed {
		st, ok := r.Fleet.State(c.Domain)
		if !ok || len(st.FirstV4) == 0 {
			continue
		}
		as, err := db.Lookup(st.FirstV4[0])
		label := "unrouted"
		if err == nil {
			label = fmt.Sprintf("AS%d %s", as.Number, as.Name)
		}
		counts[label]++
		total++
	}
	return shareRows(counts, total, 5)
}

func shareRows(counts map[string]int, total, top int) []ShareRow {
	// "Others" (whether a pre-aggregated catalog bucket or our own
	// overflow) always renders last, as in the paper's tables.
	var others ShareRow
	others.Name = "Others"
	if n, ok := counts["Others"]; ok {
		others.Count = n
	}
	rows := make([]ShareRow, 0, len(counts))
	for name, n := range counts {
		if name == "Others" {
			continue
		}
		rows = append(rows, ShareRow{Name: name, Count: n})
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

// RenderShares renders a Table 3/4/5-style distribution.
func RenderShares(title string, rows []ShareRow) string {
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
	Timing     map[blocklist.Timing]int
}

// BlocklistCoverage classifies blocklist flags for (a) early-removed NRDs
// and (b) confirmed transients, polling through pollEnd (the paper
// extends polling ~3 months past the window).
func BlocklistCoverage(r *Results, pollEnd time.Time) (earlyRemoved, transients BlocklistStats) {
	earlyRemoved.Timing = make(map[blocklist.Timing]int)
	transients.Timing = make(map[blocklist.Timing]int)
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
	Day        time.Time
	CTOnly     int
	NODOnly    int
	Both       int
	TransCT    int
	TransNOD   int
	TransBoth  int
	TransUnion int
}

// CompareNOD reproduces the §4.4 one-day comparison: NRDs registered on
// the chosen day detected by the CT pipeline vs the passive-DNS feed, and
// the same comparison restricted to transient (fast-deleted) domains.
func CompareNOD(r *Results, day time.Time) NODComparison {
	cmp := NODComparison{Day: day}
	dayEnd := day.Add(24 * time.Hour)

	ctSet := make(map[string]bool)
	for _, c := range r.candidates() {
		if c.RDAPOutcome == core.RDAPOK && !c.Registered.Before(day) && c.Registered.Before(dayEnd) {
			ctSet[c.Domain] = true
		}
	}
	r.World.Domains.Range(func(d *worldsim.Domain) {
		if d.Ghost || d.Created.Before(day) || !d.Created.Before(dayEnd) {
			return
		}
		_, nod := r.World.NOD.DetectedAt(d.Name)
		ct := ctSet[d.Name]
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

// CCTLDGroundTruth reproduces the .nl experiment: the registry's private
// ledger and zone files define ground truth; the pipeline's CT-based
// candidates are measured against it (paper: 714 / 334 / 99 ≈ 29.6 %).
func CCTLDGroundTruth(r *Results) CCTLDResult {
	tld := r.World.Cfg.CCTLD.TLD
	res := CCTLDResult{TLD: tld}
	cands := make(map[string]bool)
	for _, c := range r.candidates() {
		if c.TLD == tld {
			cands[c.Domain] = true
		}
	}
	reg := r.World.Registries[tld]
	for _, entry := range reg.Ledger() {
		if entry.Deleted.IsZero() || entry.Deleted.Sub(entry.Created) >= 24*time.Hour {
			continue
		}
		res.FastDeleted++
		if r.World.CCZones.EverSeen(entry.Domain, entry.Created.Add(-24*time.Hour), r.WindowEnd.Add(3*24*time.Hour)) {
			continue // captured by a registry zone file
		}
		res.NeverInZone++
		if cands[entry.Domain] {
			res.PipelineFound++
		}
	}
	if res.NeverInZone > 0 {
		res.Recall = float64(res.PipelineFound) / float64(res.NeverInZone)
	}
	return res
}

// ---------------------------------------------------------------------------

// TLDOf is a convenience re-export for callers rendering custom tables.
func TLDOf(domain string) string { return dnsname.TLD(domain) }

// GroundTruthTransientCount counts world domains that are fast-deleted —
// the denominator for coverage discussions (not observable by the
// pipeline; used in EXPERIMENTS.md commentary).
func GroundTruthTransientCount(w *worldsim.World) int {
	n := 0
	w.Domains.Range(func(d *worldsim.Domain) {
		if d.FastDelete {
			n++
		}
	})
	return n
}
