package workpool

// Engines is the one declaration of the campaign's concurrency settings:
// the pool widths of the stages that have work to share. One stage reads
// one: the world builder's compile fan-out reads BuildWorkers. The
// world's commit is one serial pass, the simulated clock is never
// drained on a pool (it fires one instant at a time on the draining
// goroutine), and a fleet round picks its own probe slice count from the
// round size. analysis.RunConfig and worldsim.Config embed it, so a
// value set at the top is handed down whole; core.Config and
// measure.Config embed it only for the compile shims below. Every field
// picks how work is executed, never what is computed: worlds,
// observation streams and campaign reports are byte-identical for a fixed
// seed at any value of any field, alone or combined (the determinism
// table in internal/analysis and TestGoldenReportHash hold it to that). A
// width of 0 or 1 runs the stage on the calling goroutine.
type Engines struct {
	// BuildWorkers is the world builder's compile width (worldsim):
	// per-TLD layouts compile on a pool this wide, each from its own
	// seed-derived RNG stream.
	BuildWorkers int

	// Every field below is read by nothing. They remain only because
	// bench/campaign.go and bench/world.go set them, and go with those
	// assignments in the benchmark PR that purges the shims.
	//
	// IngestWorkers and RDAPWorkers: ingest handles each certstream event
	// as it is delivered and step 2 is one clock timer per candidate, so
	// neither stage ever holds two items at once.
	IngestWorkers int
	RDAPWorkers   int
	// ClockWorkers and LookaheadWindow: the clock's lookahead drain lost
	// its measured comparison with the plain drain (DESIGN.md §12) and
	// was removed.
	ClockWorkers    int
	LookaheadWindow int
	// CommitWorkers: the world's commit is one serial pass into one map,
	// since a pooled commit into a striped store measured no gain on 2
	// cores (DESIGN.md §9).
	CommitWorkers int
	// ProbeWorkers and ApplyWorkers: a fleet round cuts its probe slices
	// from the round size, which no forced count beat, and applies its
	// results in one loop on the round goroutine, which no apply width
	// beat (DESIGN.md §14).
	ProbeWorkers int
	ApplyWorkers int
}

// AllEngines returns every width read by a stage set to w: the one
// engines-on configuration TestGoldenReportHash and the -workers flag of
// the commands use. AllEngines(0) is the zero value, the default path.
func AllEngines(w int) Engines {
	return Engines{BuildWorkers: w}
}
