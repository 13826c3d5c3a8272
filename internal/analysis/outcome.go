package analysis

import "time"

// Outcome is every number the report prints, reduced from one finished
// campaign. It holds no pointer, map or interface, and its names are
// copies, not substrings of the campaign's name storage, so it keeps
// nothing of the campaign's world, pipeline or fleet alive; encoding/json
// can write it as it is. WriteOutcome renders it.
type Outcome struct {
	// The run's identity.
	Seed    int64
	Scale   float64
	Weeks   int
	Domains int // ground-truth world size

	Candidates int // CT-detected NRD candidates
	LowerBound int // the transient lower bound
	Confirmed  int // its RDAP-validated subset

	Table1                 []TLDRow
	Figure1                Figure
	Within15m, Within45m   float64 // Figure 1's All samples certified within 15 and 45 minutes
	MedianDelay            time.Duration
	NSKept, NSWatched      int // §4.1: kept the initial NS set for 24 h, of watched in-zone names
	Table2                 []TLDRow
	RDAP                   RDAPStats
	Figure2                Figure
	Within6h               float64 // Figure 2's transients that died within 6 hours
	MedianLifetime         time.Duration
	Lifetimes              int // Figure 2's sample size
	Table3, Table4, Table5 []ShareRow
	PollEnd                string // §4.3: the last blocklist poll, as a date
	EarlyRemoved           BlocklistStats
	TransientFlags         BlocklistStats
	NOD                    NODComparison
	CCTLD                  CCTLDResult
	RZU                    []RZUWhatIfResult // one per rzuIntervals entry
	Mail                   MailAdoption
}

// Figure is one of the paper's CDF figures: each series evaluated at the
// buckets.
type Figure struct {
	Buckets []time.Duration
	Series  []Series
}

// NRDs is Table 1's total: the CT-detected NRDs in TLDs with a zone
// baseline.
func (o *Outcome) NRDs() int {
	n := 0
	for _, row := range o.Table1 {
		n += row.Total
	}
	return n
}

// rzuIntervals are the publication intervals of the §5 what-if: Verisign's
// historical rapid updates, an hourly feed and the daily CZDS status quo.
var rzuIntervals = []time.Duration{5 * time.Minute, time.Hour, 24 * time.Hour}

// Reduce computes a finished campaign's Outcome. It is the one caller of
// the experiment functions, and it computes each input they share once:
// one sorted copy of the candidates, one sorted view of the fleet's
// states (pointers, not copies) and one pass over the world for every
// RZU interval.
func Reduce(r *Results) Outcome {
	cands := r.Candidates()
	states := r.Fleet.StateView()
	o := Outcome{
		Seed: r.World.Cfg.Seed, Scale: r.World.Cfg.Scale, Weeks: r.World.Cfg.Weeks,
		Domains:    r.World.Domains.Len(),
		Candidates: len(cands),
		LowerBound: len(r.Report.LowerBound),
		Confirmed:  len(r.Report.Confirmed),
		Table1:     table1(r),
		Table2:     table2(r),
		RDAP:       rdapFailureStats(r),
		Table3:     table3(r),
		Table4:     table4(r, states),
		Table5:     table5(r, states),
		NOD:        compareNOD(r, r.WindowStart.Add(14*24*time.Hour)),
		CCTLD:      ccTLDGroundTruth(r),
		RZU:        rzuWhatIf(r, rzuIntervals...),
		Mail:       mailStats(r, states),
	}
	var cdf *CDF
	o.Figure1, cdf = figure1(r)
	o.Within15m, o.Within45m, o.MedianDelay = cdf.At(15*time.Minute), cdf.At(45*time.Minute), cdf.Quantile(0.5)
	o.NSKept, o.NSWatched = nsStability(states)
	o.Figure2, cdf = figure2(r, states)
	o.Within6h, o.MedianLifetime, o.Lifetimes = cdf.At(6*time.Hour), cdf.Quantile(0.5), cdf.Len()
	pollEnd := r.WindowEnd.Add(90 * 24 * time.Hour)
	o.PollEnd = pollEnd.Format(time.DateOnly)
	o.EarlyRemoved, o.TransientFlags = blocklistCoverage(r, pollEnd)
	return o
}
