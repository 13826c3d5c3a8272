package workpool

// Engines is the one declaration of the campaign's concurrency settings:
// the pool widths of the stages that have work to share. Two stages each
// read one: the world builder's compile and commit fan-outs. The
// simulated clock is never drained on a pool (it fires one instant at a
// time on the draining goroutine), and a fleet round picks its own probe
// slice count from the round size. analysis.RunConfig and worldsim.Config
// embed it, so a value set at the top is handed down whole; core.Config
// and measure.Config embed it only for the compile shims below. Every
// field picks how work is executed, never what is computed: worlds,
// observation streams and campaign reports are byte-identical for a fixed
// seed at any value of any field, alone or combined (the determinism
// table in internal/analysis and TestGoldenReportHash hold it to that). A
// width of 0 or 1 runs the stage on the calling goroutine.
type Engines struct {
	// IngestWorkers and RDAPWorkers are read by nothing: ingest handles
	// each certstream event as it is delivered and step 2 is one clock
	// timer per candidate, so neither stage ever holds two items at once.
	// They remain only because bench/campaign.go sets them, and go with
	// those assignments in the benchmark PR of ROADMAP item 1(d).
	IngestWorkers int
	RDAPWorkers   int
	// ClockWorkers and LookaheadWindow are read by nothing: the clock's
	// lookahead drain lost its measured comparison with the plain drain
	// (DESIGN.md §12) and was removed. They remain only because
	// bench/campaign.go sets them, and go with those assignments in the
	// benchmark PR of ROADMAP item 1(d).
	ClockWorkers    int
	LookaheadWindow int
	// BuildWorkers is the world builder's compile width (worldsim):
	// per-TLD layouts compile on a pool this wide, each from its own
	// seed-derived RNG stream.
	BuildWorkers int
	// CommitWorkers is the world builder's commit width (worldsim):
	// compiled layouts install on a pool this wide — record installs
	// stripe across the sharded domain store and substrate seedings
	// commute across the distinct names layouts own — while the ghost
	// ledger and clock timelines install serially in canonical order.
	CommitWorkers int
	// ProbeWorkers and ApplyWorkers are read by nothing: a fleet round
	// cuts its probe slices from the round size, which no forced count
	// beat, and applies its results in one loop on the round goroutine,
	// which no apply width beat (DESIGN.md §14). They remain only because
	// bench/campaign.go sets them, and go with those assignments in the
	// benchmark PR of ROADMAP item 1(d).
	ProbeWorkers int
	ApplyWorkers int
}

// AllEngines returns every width read by a stage set to w: the one
// engines-on configuration TestGoldenReportHash and the -workers flag of
// the commands use. AllEngines(0) is the zero value, the default path.
func AllEngines(w int) Engines {
	return Engines{BuildWorkers: w, CommitWorkers: w}
}
