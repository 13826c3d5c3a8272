package analysis

import (
	"strings"
	"sync"
	"testing"
	"time"

	"darkdns/internal/blocklist"
)

// sharedResults runs one campaign for the whole test package — the run is
// deterministic, so every experiment can assert against the same Results
// and its one Outcome.
var (
	resOnce sync.Once
	res     *Results
	out     Outcome
)

func testResults(t testing.TB) *Results {
	t.Helper()
	resOnce.Do(func() {
		cfg := DefaultRunConfig()
		cfg.Seed = 17
		cfg.Scale = 0.004
		cfg.Weeks = 5
		cfg.ProbeMail = true
		res = Run(cfg)
		out = Reduce(res)
	})
	return res
}

func testOutcome(t testing.TB) *Outcome {
	t.Helper()
	testResults(t)
	return &out
}

func TestMailAdoptionShape(t *testing.T) {
	m := testOutcome(t).Mail
	if m.NormalTotal == 0 || m.TransientTotal == 0 {
		t.Fatalf("empty mail stats: %+v", m)
	}
	normalMX := float64(m.NormalMX) / float64(m.NormalTotal)
	transMX := float64(m.TransientMX) / float64(m.TransientTotal)
	if normalMX <= transMX {
		t.Errorf("normal MX adoption %.3f should exceed transient %.3f", normalMX, transMX)
	}
	if normalMX < 0.40 || normalMX > 0.70 {
		t.Errorf("normal MX adoption %.3f outside [0.40, 0.70]", normalMX)
	}
	transSPF := float64(m.TransientSPF) / float64(m.TransientTotal)
	if transSPF == 0 {
		t.Error("transient SPF adoption should be non-zero")
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]time.Duration{1 * time.Hour, 2 * time.Hour, 3 * time.Hour, 4 * time.Hour})
	if got := c.At(2 * time.Hour); got != 0.5 {
		t.Errorf("At(2h) = %v", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v", got)
	}
	if got := c.At(5 * time.Hour); got != 1 {
		t.Errorf("At(5h) = %v", got)
	}
	if q := c.Quantile(0.5); q != 3*time.Hour {
		t.Errorf("Quantile(0.5) = %v", q)
	}
	if q := c.Quantile(0); q != time.Hour {
		t.Errorf("Quantile(0) = %v", q)
	}
	if q := c.Quantile(1); q != 4*time.Hour {
		t.Errorf("Quantile(1) = %v", q)
	}
	empty := NewCDF(nil)
	if empty.At(time.Hour) != 0 || empty.Quantile(0.5) != 0 || empty.Len() != 0 {
		t.Error("empty CDF misbehaves")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tbl.AddRow("xxx", "1")
	out := tbl.Render()
	if !strings.Contains(out, "xxx") || !strings.Contains(out, "bb") {
		t.Errorf("render:\n%s", out)
	}
}

func TestCountFormatting(t *testing.T) {
	cases := map[int]string{1: "1", 999: "999", 1000: "1 000", 1234567: "1 234 567"}
	for in, want := range cases {
		if got := Count(in); got != want {
			t.Errorf("Count(%d) = %q, want %q", in, got, want)
		}
	}
	if Pct(1, 0) != "n/a" || Pct(1, 4) != "25.0%" {
		t.Error("Pct")
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		30 * time.Second: "30s", 2 * time.Minute: "2m",
		3 * time.Hour: "3h", 48 * time.Hour: "2d",
	}
	for in, want := range cases {
		if got := FormatDuration(in); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", in, got, want)
		}
	}
}

// --- Shape assertions against the paper -----------------------------------

func TestTable1Shape(t *testing.T) {
	rows := testOutcome(t).Table1
	if len(rows) < 10 {
		t.Fatalf("only %d TLD rows", len(rows))
	}
	if rows[0].TLD != "com" {
		t.Errorf("top TLD = %s, want com", rows[0].TLD)
	}
	var total, zoneTotal int
	for _, row := range rows {
		total += row.Total
		zoneTotal += row.ZoneNRD
		if row.TLD == "nl" {
			t.Error("ccTLD must not appear in Table 1 (no CZDS zone)")
		}
	}
	// Aggregate coverage ≈ 42 % (paper Table 1 Total row).
	det := 0
	for _, row := range rows {
		det += int(float64(row.ZoneNRD) * row.Coverage)
	}
	cov := float64(det) / float64(zoneTotal)
	if cov < 0.30 || cov > 0.55 {
		t.Errorf("aggregate coverage %.3f outside [0.30, 0.55] (paper: 0.42)", cov)
	}
	// com's share of CT NRDs ≈ 55 %.
	comShare := float64(rows[0].Total) / float64(total)
	if comShare < 0.40 || comShare > 0.70 {
		t.Errorf("com share %.3f outside [0.40, 0.70] (paper: 0.55)", comShare)
	}
	text := renderTLDTable("Table 1", rows, true)
	if !strings.Contains(text, "com") || !strings.Contains(text, "Total") {
		t.Errorf("render:\n%s", text)
	}
}

func TestFigure1Shape(t *testing.T) {
	o := testOutcome(t)
	buckets, series := o.Figure1.Buckets, o.Figure1.Series
	if len(series) < 3 {
		t.Fatalf("only %d series", len(series))
	}
	all := series[len(series)-1]
	if all.Name != "All" {
		t.Fatalf("last series %q, want All", all.Name)
	}
	within15, within45, median := o.Within15m, o.Within45m, o.MedianDelay
	// Paper: ≈30 % within 15 min, 50 % within 45 min.
	if within15 < 0.15 || within15 > 0.60 {
		t.Errorf("within-15m %.3f outside [0.15, 0.60] (paper ≈0.30)", within15)
	}
	if within45 < 0.35 || within45 > 0.80 {
		t.Errorf("within-45m %.3f outside [0.35, 0.80] (paper ≈0.50)", within45)
	}
	if median > 3*time.Hour {
		t.Errorf("median detection delay %v implausibly slow", median)
	}
	// com (60 s zone cadence) must be detected faster than a slow-cadence
	// gTLD at the 15-minute mark.
	idx := func(name string) int {
		for i, s := range series {
			if s.Name == name {
				return i
			}
		}
		return -1
	}
	bucket15 := -1
	for i, b := range buckets {
		if b == 15*time.Minute {
			bucket15 = i
		}
	}
	if ci, si := idx("com"), idx("shop"); ci >= 0 && si >= 0 && bucket15 >= 0 {
		if series[ci].Values[bucket15] <= series[si].Values[bucket15] {
			t.Errorf("com CDF@15m (%.3f) should exceed shop's (%.3f): zone cadence",
				series[ci].Values[bucket15], series[si].Values[bucket15])
		}
	}
	// CDFs must be monotone.
	for _, s := range series {
		for i := 1; i < len(s.Values); i++ {
			if s.Values[i] < s.Values[i-1] {
				t.Fatalf("series %s not monotone", s.Name)
			}
		}
	}
}

func TestNSStabilityShape(t *testing.T) {
	kept, total := testOutcome(t).NSKept, testOutcome(t).NSWatched
	if total == 0 {
		t.Fatal("no watched domains")
	}
	share := float64(kept) / float64(total)
	// Paper §4.1: 97.5 % kept their NS infrastructure for 24 h.
	if share < 0.95 || share > 0.995 {
		t.Errorf("NS-kept share %.4f outside [0.95, 0.995] (paper 0.975)", share)
	}
}

func TestTable2Shape(t *testing.T) {
	o := testOutcome(t)
	rows := o.Table2
	if len(rows) == 0 {
		t.Fatal("no transient rows")
	}
	if rows[0].TLD != "com" {
		t.Errorf("top transient TLD = %s, want com", rows[0].TLD)
	}
	// Transients ≈1 % of CT NRDs (paper: 68,042 of 6.8 M).
	trans := 0
	for _, row := range rows {
		trans += row.Total
	}
	nrds := o.Candidates
	share := float64(trans) / float64(nrds)
	if share < 0.003 || share > 0.03 {
		t.Errorf("transient share %.4f outside [0.003, 0.03] (paper ≈0.01)", share)
	}
	text := renderTLDTable("Table 2", rows, false)
	if !strings.Contains(text, "Total") {
		t.Errorf("render:\n%s", text)
	}
}

func TestRDAPFailureShape(t *testing.T) {
	s := testOutcome(t).RDAP
	if s.NRDTotal == 0 || s.TransTotal == 0 {
		t.Fatal("empty stats")
	}
	nrdRate := float64(s.NRDFailed) / float64(s.NRDTotal)
	transRate := float64(s.TransFailed) / float64(s.TransTotal)
	// Paper: ≈3 % overall, ≈34 % for transients.
	if nrdRate > 0.10 {
		t.Errorf("overall RDAP failure %.3f > 0.10 (paper 0.03)", nrdRate)
	}
	if transRate < 0.15 || transRate > 0.55 {
		t.Errorf("transient RDAP failure %.3f outside [0.15, 0.55] (paper 0.34)", transRate)
	}
	if transRate <= nrdRate*2 {
		t.Errorf("transient failure (%.3f) should dwarf overall (%.3f)", transRate, nrdRate)
	}
	// ≈97 % of failed transients existed in historical zone data.
	if s.TransFailed > 20 {
		hist := float64(s.FailedHistoric) / float64(s.TransFailed)
		if hist < 0.80 {
			t.Errorf("historic share %.3f < 0.80 (paper 0.97)", hist)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	r := testResults(t)
	fig, cdf := figure2(r, r.Fleet.StateView())
	s := fig.Series[0]
	if cdf.Len() < 20 {
		t.Fatalf("only %d lifetime samples", cdf.Len())
	}
	// Paper §4.2.1: >50 % die within 6 h.
	at6h := cdf.At(6 * time.Hour)
	if at6h < 0.45 {
		t.Errorf("CDF@6h = %.3f, want ≥0.45 (paper >0.50)", at6h)
	}
	if got := cdf.At(26 * time.Hour); got < 0.99 {
		t.Errorf("CDF@26h = %.3f, transients must die within a day", got)
	}
	for i := 1; i < len(s.Values); i++ {
		if s.Values[i] < s.Values[i-1] {
			t.Fatal("figure 2 CDF not monotone")
		}
	}
}

func TestTable3Shape(t *testing.T) {
	rows := testOutcome(t).Table3
	if len(rows) < 5 {
		t.Fatalf("only %d registrar rows", len(rows))
	}
	// At test scale the confirmed-transient sample is small, so assert
	// GoDaddy leads or trails the leader narrowly rather than demanding
	// strict rank order.
	var gd ShareRow
	for _, row := range rows {
		if row.Name == "GoDaddy" {
			gd = row
		}
	}
	if gd.Name == "" {
		t.Fatal("GoDaddy missing from Table 3")
	}
	if rows[0].Name != "GoDaddy" && rows[1].Name != "GoDaddy" {
		t.Errorf("GoDaddy not in top 2: %v, %v", rows[0].Name, rows[1].Name)
	}
	if gd.Share < 0.10 || gd.Share > 0.30 {
		t.Errorf("GoDaddy share %.3f outside [0.10, 0.30] (paper 0.194)", gd.Share)
	}
	text := renderShares("Table 3", rows)
	if !strings.Contains(text, "GoDaddy") {
		t.Errorf("render:\n%s", text)
	}
}

func TestTable4Shape(t *testing.T) {
	rows := testOutcome(t).Table4
	if len(rows) == 0 {
		t.Fatal("no DNS hosting rows")
	}
	if rows[0].Name != "cloudflare.com" {
		t.Errorf("top DNS SLD = %s, want cloudflare.com (Table 4)", rows[0].Name)
	}
	if rows[0].Share < 0.35 || rows[0].Share > 0.65 {
		t.Errorf("Cloudflare share %.3f outside [0.35, 0.65] (paper 0.495)", rows[0].Share)
	}
}

func TestTable5Shape(t *testing.T) {
	rows := testOutcome(t).Table5
	if len(rows) == 0 {
		t.Fatal("no web hosting rows")
	}
	if !strings.Contains(rows[0].Name, "13335") {
		t.Errorf("top web AS = %s, want AS13335 Cloudflare (Table 5)", rows[0].Name)
	}
	if rows[0].Share < 0.25 || rows[0].Share > 0.50 {
		t.Errorf("AS13335 share %.3f outside [0.25, 0.50] (paper 0.362)", rows[0].Share)
	}
}

func TestBlocklistShape(t *testing.T) {
	early, trans := testOutcome(t).EarlyRemoved, testOutcome(t).TransientFlags
	if early.Population == 0 {
		t.Fatal("no early-removed population")
	}
	earlyRate := float64(early.Flagged) / float64(early.Population)
	// Paper: 6.6 % of early-removed NRDs flagged.
	if earlyRate < 0.03 || earlyRate > 0.12 {
		t.Errorf("early-removed flag rate %.4f outside [0.03, 0.12] (paper 0.066)", earlyRate)
	}
	// Of flagged early-removed, most were active when flagged (paper
	// 92 %; at the short test window deleted-before-window-end selects
	// shorter lifetimes, so the band is looser here than in the full
	// 13-week reproduction).
	if early.Flagged > 20 {
		active := float64(early.Timing[blocklist.WhileActive]+early.Timing[blocklist.OnRegistrationDay]) / float64(early.Flagged)
		if active < 0.55 {
			t.Errorf("while-active share %.3f < 0.55 (paper 0.92)", active)
		}
	}
	if trans.Population == 0 {
		t.Fatal("no transient population")
	}
	transRate := float64(trans.Flagged) / float64(trans.Population)
	// Paper: 5 % of transients flagged…
	if transRate > 0.15 {
		t.Errorf("transient flag rate %.4f > 0.15 (paper 0.05)", transRate)
	}
	// …and of those, ≈94 % after deletion.
	if trans.Flagged > 10 {
		post := float64(trans.Timing[blocklist.AfterDeletion]) / float64(trans.Flagged)
		if post < 0.75 {
			t.Errorf("post-deletion share %.3f < 0.75 (paper 0.94)", post)
		}
	}
}

func TestNODComparisonShape(t *testing.T) {
	cmp := testOutcome(t).NOD
	ct := cmp.Both + cmp.CTOnly
	nod := cmp.Both + cmp.NODOnly
	if ct == 0 || nod == 0 {
		t.Fatalf("degenerate comparison: %+v", cmp)
	}
	// Paper: SIE NOD sees ≈5 % more NRDs; overlap ≈60 %.
	ratio := float64(nod) / float64(ct)
	if ratio < 0.85 || ratio > 1.35 {
		t.Errorf("NOD/CT ratio %.3f outside [0.85, 1.35] (paper ≈1.05)", ratio)
	}
	overlap := float64(cmp.Both) / float64(ct)
	if overlap < 0.45 || overlap > 0.80 {
		t.Errorf("overlap %.3f outside [0.45, 0.80] (paper ≈0.60)", overlap)
	}
	// Each source must see a distinct subset.
	if cmp.CTOnly == 0 || cmp.NODOnly == 0 {
		t.Errorf("sources fully nested: %+v", cmp)
	}
}

func TestCCTLDGroundTruthShape(t *testing.T) {
	res := testOutcome(t).CCTLD
	if res.FastDeleted == 0 {
		t.Skip("no ccTLD fast-deleted domains at this scale")
	}
	if res.NeverInZone == 0 {
		t.Skip("no never-in-zone ccTLD domains at this scale")
	}
	// Roughly half the fast-deleted population evades the daily snapshot
	// (paper: 334/714 ≈ 0.47).
	miss := float64(res.NeverInZone) / float64(res.FastDeleted)
	if miss < 0.25 || miss > 0.75 {
		t.Errorf("never-in-zone share %.3f outside [0.25, 0.75] (paper 0.47)", miss)
	}
	// Pipeline recall ≈30 % — the paper's headline blind spot.
	if res.NeverInZone >= 10 {
		if res.Recall < 0.10 || res.Recall > 0.60 {
			t.Errorf("ccTLD recall %.3f outside [0.10, 0.60] (paper 0.296)", res.Recall)
		}
	}
}

func TestCDFTableRender(t *testing.T) {
	text := cdfTable("Figure 1", testOutcome(t).Figure1)
	if !strings.Contains(text, "Figure 1") || !strings.Contains(text, "≤15m") {
		t.Errorf("render:\n%s", text)
	}
}
