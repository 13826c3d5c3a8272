package analysis

import (
	"io"
	"testing"
	"time"
)

// One benchmark per table and figure of the paper's evaluation (DESIGN.md
// §4 experiment index E1–E12, X1–X2), each over the package's shared test
// campaign, plus Reduce and WriteOutcome, which run them all and render
// the result.
//
// Run with:
//
//	go test -run '^$' -bench . -benchmem ./internal/analysis

// benchExperiment times one experiment over the shared campaign; fail
// says when its result is degenerate.
func benchExperiment[T any](b *testing.B, run func(*Results) T, fail func(T) bool) {
	r := testResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fail(run(r)) {
			b.Fatal("degenerate result")
		}
	}
}

// BenchmarkTable1NRDs regenerates Table 1 (E1).
func BenchmarkTable1NRDs(b *testing.B) {
	benchExperiment(b, func(r *Results) string { return renderTLDTable("Table 1", table1(r), true) },
		func(s string) bool { return s == "" })
}

// BenchmarkFigure1DetectionDelay regenerates Figure 1 (E2).
func BenchmarkFigure1DetectionDelay(b *testing.B) {
	benchExperiment(b, func(r *Results) Figure { f, _ := figure1(r); return f },
		func(f Figure) bool { return len(f.Series) == 0 })
}

// BenchmarkNSStability regenerates the §4.1 NS-stability statistic (E3),
// the fleet's sorted state view included.
func BenchmarkNSStability(b *testing.B) {
	benchExperiment(b, func(r *Results) int { _, total := nsStability(r.Fleet.StateView()); return total },
		func(total int) bool { return total == 0 })
}

// BenchmarkTable2Transients regenerates Table 2 (E4).
func BenchmarkTable2Transients(b *testing.B) {
	benchExperiment(b, func(r *Results) string { return renderTLDTable("Table 2", table2(r), false) },
		func(s string) bool { return s == "" })
}

// BenchmarkRDAPFailureStats regenerates the §4.2 failure accounting (E5).
func BenchmarkRDAPFailureStats(b *testing.B) {
	benchExperiment(b, rdapFailureStats, func(s RDAPStats) bool { return s.NRDTotal == 0 })
}

// BenchmarkFigure2Lifetimes regenerates Figure 2 (E6), the fleet's state
// view included.
func BenchmarkFigure2Lifetimes(b *testing.B) {
	benchExperiment(b, func(r *Results) *CDF { _, cdf := figure2(r, r.Fleet.StateView()); return cdf },
		func(cdf *CDF) bool { return cdf.Len() == 0 })
}

// BenchmarkTable3Registrars regenerates Table 3 (E7).
func BenchmarkTable3Registrars(b *testing.B) {
	benchExperiment(b, table3, func(rows []ShareRow) bool { return len(rows) == 0 })
}

// BenchmarkTable4DNSHosting regenerates Table 4 (E8), the fleet's state
// view included.
func BenchmarkTable4DNSHosting(b *testing.B) {
	benchExperiment(b, func(r *Results) []ShareRow { return table4(r, r.Fleet.StateView()) },
		func(rows []ShareRow) bool { return len(rows) == 0 })
}

// BenchmarkTable5WebHosting regenerates Table 5 (E9), the fleet's state
// view included.
func BenchmarkTable5WebHosting(b *testing.B) {
	benchExperiment(b, func(r *Results) []ShareRow { return table5(r, r.Fleet.StateView()) },
		func(rows []ShareRow) bool { return len(rows) == 0 })
}

// BenchmarkBlocklistCoverage regenerates the §4.3 statistics (E10).
func BenchmarkBlocklistCoverage(b *testing.B) {
	benchExperiment(b, func(r *Results) BlocklistStats {
		early, _ := blocklistCoverage(r, r.WindowEnd.Add(90*24*time.Hour))
		return early
	}, func(early BlocklistStats) bool { return early.Population == 0 })
}

// BenchmarkNODComparison regenerates the §4.4 feed comparison (E11).
func BenchmarkNODComparison(b *testing.B) {
	benchExperiment(b, func(r *Results) NODComparison { return compareNOD(r, r.WindowStart.Add(14*24*time.Hour)) },
		func(cmp NODComparison) bool { return cmp.Both+cmp.CTOnly == 0 })
}

// BenchmarkCCTLDGroundTruth regenerates the §4.4 .nl experiment (E12).
func BenchmarkCCTLDGroundTruth(b *testing.B) {
	benchExperiment(b, ccTLDGroundTruth, func(cc CCTLDResult) bool { return cc.FastDeleted == 0 })
}

// BenchmarkRZUWhatIf computes the §5 rapid-zone-update extension (X1) at
// every interval the report prints, in its one pass over the world.
func BenchmarkRZUWhatIf(b *testing.B) {
	benchExperiment(b, func(r *Results) []RZUWhatIfResult { return rzuWhatIf(r, rzuIntervals...) },
		func(res []RZUWhatIfResult) bool { return res[0].FastDeleted == 0 })
}

// BenchmarkMailStats computes the §5 mail-adoption extension (X2), the
// fleet's sorted state view included.
func BenchmarkMailStats(b *testing.B) {
	benchExperiment(b, func(r *Results) MailAdoption { return mailStats(r, r.Fleet.StateView()) },
		func(m MailAdoption) bool { return m.NormalTotal == 0 })
}

// BenchmarkReduce computes the whole Outcome: every experiment above, with
// the fleet's sorted state view made once.
func BenchmarkReduce(b *testing.B) {
	benchExperiment(b, Reduce, func(o Outcome) bool { return o.Candidates == 0 })
}

// BenchmarkWriteReport is what the performance ledger times after each
// campaign: Reduce, then WriteOutcome's rendering.
func BenchmarkWriteReport(b *testing.B) {
	benchExperiment(b, func(r *Results) error { return WriteReport(io.Discard, r) },
		func(err error) bool { return err != nil })
}
