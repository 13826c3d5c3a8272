package workpool

// Engines is the one declaration of the campaign's concurrency settings:
// the pool widths of the stages that have work to share and the clock's
// lookahead window. analysis.RunConfig, worldsim.Config, core.Config and
// measure.Config embed it, so a value set at the top is handed down whole
// and each layer reads the fields it owns. Every field picks how work is
// executed, never what is computed: worlds, observation streams and
// campaign reports are byte-identical for a fixed seed at any value of
// any field, alone or combined (the determinism table in
// internal/analysis and TestGoldenReportHash hold it to that). A width of
// 0 or 1 runs the stage on the calling goroutine.
type Engines struct {
	// IngestWorkers and RDAPWorkers are read by nothing: ingest handles
	// each certstream event as it is delivered and step 2 is one clock
	// timer per candidate, so neither stage ever holds two items at once.
	// They remain only because bench/campaign.go sets them, and go with
	// those assignments in the benchmark PR of ROADMAP item 1(d).
	IngestWorkers int
	RDAPWorkers   int
	// ClockWorkers is the pool width a lookahead window's conflict groups
	// fire on (simclock); it has no effect at LookaheadWindow 0.
	ClockWorkers int
	// LookaheadWindow is the drain's lookahead (simclock): ≥ 1 fires
	// effect-disjoint tagged events from up to this many distinct future
	// timestamps in one round; untagged events and tag conflicts remain
	// ordering barriers. 0 fires one timestamp at a time.
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
	// ProbeWorkers is how many contiguous slices a fleet round is cut
	// into (measure), each one ProbeBatch call on its own goroutine: ≥ 1
	// means exactly that many (fewer only when the round is smaller), 0
	// lets the fleet choose from the round size — one slice per 256 due
	// domains, at most its 16 workers. Results are positional.
	ProbeWorkers int
	// ApplyWorkers is how many contiguous slices a fleet round's state
	// applies are cut into (measure), run on a pool this wide once the
	// round's probes are in; applies of distinct domains commute and
	// stripe onto the watch registry's shard locks. Observers fire after
	// the applies, in admission order, at every width.
	ApplyWorkers int
}

// AllEngines returns every width read by a stage set to w, behind an
// 8-instant lookahead when w > 0: the one engines-on configuration
// TestGoldenReportHash and the -workers flag of the commands use.
// AllEngines(0) is the zero value, the default path.
func AllEngines(w int) Engines {
	e := Engines{
		ClockWorkers: w, BuildWorkers: w, CommitWorkers: w, ProbeWorkers: w, ApplyWorkers: w,
	}
	if w > 0 {
		e.LookaheadWindow = 8
	}
	return e
}
