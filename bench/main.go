// Command bench is the repository's performance ledger: one invocation
// runs one named workload for one seed, checks that the program's outputs
// are correct, and prints every metric BENCHMARK.json lists — the
// end-to-end ones from an untraced run (-trace 0), the per-layer ones from
// a run with spans recorded at each layer's public boundary (-trace 1).
// See README.md for the workloads, the metrics and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// spec mirrors BENCHMARK.json, the single table of workload and metric
// names, units and bounds; nothing in this package repeats it.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// sample is one reported value and the number of measurements behind it.
type sample struct {
	value float64
	n     int
}

// result is what one workload run produced. Metrics a workload does not
// have are simply absent from the maps.
type result struct {
	attempted, failed int64
	e2e, layer        map[string]sample
	notes             []string // workload facts worth a header line (report hash, transport)
}

func newResult() *result {
	return &result{e2e: map[string]sample{}, layer: map[string]sample{}}
}

func (r *result) setLayer(name string, v float64) { r.layer[name] = sample{v, 1} }

// env is what a workload is given: its seed, the machine-derived width,
// its time budget and sizing, and — on a traced run — the span recorder.
type env struct {
	seed    int64
	width   int     // W = min(nproc, 4): engine widths, subscribers, UDP sockets
	seconds float64 // timed-region budget
	size    sizing
	tr      *tracer // nil on the untraced run
	tmp     string  // scratch directory inside the checkout
	failed  int64   // correctness checks that did not hold
	stderr  io.Writer
}

// failf names a failed correctness check on stderr and counts the n
// operations it covers into the run's failed total.
func (e *env) failf(n int64, format string, args ...any) {
	e.failed += n
	fmt.Fprintf(e.stderr, "bench: check failed: "+format+"\n", args...)
}

// sizing holds every repetition and volume knob. full is the ledger's;
// quick is the tiny variant the tests drive every workload with.
type sizing struct {
	campaignScale float64
	campaignWeeks int
	campaignReps  int // minimum timed reps
	worldScale    float64
	worldWeeks    int
	worldWarmups  int
	worldReps     int
	liveRate      int // entries per second
	liveEntries   int // 0 = liveRate × seconds
	replayEntries int
	replayReps    int
	wireBatches   int
	wireReps      int
	isolationN    int // iterations of each isolation loop in traced runs
	watchdog      time.Duration
}

var (
	fullSizing = sizing{
		campaignScale: 0.002, campaignWeeks: 3, campaignReps: 5,
		worldScale: 0.02, worldWeeks: 4, worldWarmups: 2, worldReps: 5,
		liveRate:      20000,
		replayEntries: 500000, replayReps: 3,
		wireBatches: 1600, wireReps: 3,
		isolationN: 20000,
		watchdog:   150 * time.Second,
	}
	quickSizing = sizing{
		campaignScale: 0.0003, campaignWeeks: 1, campaignReps: 1,
		worldScale: 0.001, worldWeeks: 1, worldWarmups: 0, worldReps: 1,
		liveRate: 20000, liveEntries: 2000,
		replayEntries: 2000, replayReps: 1,
		wireBatches: 20, wireReps: 1,
		isolationN: 200,
		watchdog:   30 * time.Second,
	}
)

type workload struct {
	name string
	run  func(*env) *result
}

var workloads = []workload{
	{"campaign_serial", func(e *env) *result { return runCampaign(e, false) }},
	{"campaign_engines", func(e *env) *result { return runCampaign(e, true) }},
	{"world_build", runWorldBuild},
	{"feed_live", runFeedLive},
	{"feed_replay", runFeedReplay},
	{"probe_wire", runProbeWire},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func machineWidth() int { return min(runtime.NumCPU(), 4) }

type options struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	spans   string
	tmp     string
}

// runOne runs one workload under the watchdog and the goroutine-baseline
// check, so that neither a hang nor a leaked server can outlive the run.
func runOne(wl *workload, opt options, stdout, stderr io.Writer) (*result, error) {
	size := fullSizing
	if opt.quick {
		size = quickSizing
	}
	dog := time.AfterFunc(size.watchdog, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded its %v watchdog; goroutines:\n", wl.name, size.watchdog)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(1)
	})
	defer dog.Stop()

	if err := os.MkdirAll(opt.tmp, 0o755); err != nil {
		return nil, err
	}
	e := &env{seed: opt.seed, width: machineWidth(), seconds: opt.seconds, size: size, tmp: opt.tmp, stderr: stderr}
	if opt.trace {
		e.tr = newTracer()
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d W=%d seconds=%g trace=%t quick=%t %s GOMAXPROCS=%d\n",
		wl.name, opt.seed, e.width, opt.seconds, opt.trace, opt.quick, runtime.Version(), runtime.GOMAXPROCS(0))

	baseline := runtime.NumGoroutine()
	res := wl.run(e)
	res.failed = e.failed
	res.setLayer("fail_ratio", ratio(float64(res.failed), float64(res.attempted)))
	if err := awaitGoroutines(baseline, 2*time.Second); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	if e.tr != nil {
		path := opt.spans
		if path == "" {
			path = filepath.Join(opt.tmp, "spans-"+wl.name+".jsonl")
		}
		if err := e.tr.writeFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "# spans=%s n=%d\n", path, len(e.tr.spans))
	}
	return res, nil
}

// awaitGoroutines waits for the goroutine count to return to baseline and
// reports, with a dump, the ones still running if it does not.
func awaitGoroutines(baseline int, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "bench: %d goroutines outlived the workload (baseline %d):\n", runtime.NumGoroutine(), baseline)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			return fmt.Errorf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// emit prints one line per metric the workload produced, then — last —
// the machine-readable object: every end-to-end metric of the spec on an
// untraced run, every per-layer metric on a traced one (0 where the
// workload has no such layer).
func emit(sp *spec, res *result, trace bool, stdout io.Writer) error {
	defs, have := sp.EndToEnd, res.e2e
	if trace {
		defs, have = sp.PerLayer, res.layer
	}
	known := map[string]bool{}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	for _, d := range defs {
		known[d.Name] = true
		s, ok := have[d.Name]
		if !ok && !trace {
			return fmt.Errorf("workload produced no %s", d.Name)
		}
		if ok {
			fmt.Fprintf(stdout, "%s %.6g %s n=%d\n", d.Name, s.value, d.Unit, s.n)
		}
		metrics[d.Name] = jsonMetric{s.value, d.Unit}
	}
	if !trace {
		fmt.Fprintf(stdout, "fail_ratio %g ratio n=%d\n", ratio(float64(res.failed), float64(res.attempted)), res.attempted)
	}
	for name := range have {
		if !known[name] {
			return fmt.Errorf("workload produced %s, which BENCHMARK.json does not list", name)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// selfCheck is -aa: the whole workload set twice on this one binary. Two
// runs of identical code must agree within each metric's own bound, or the
// bound cannot tell a later change from noise.
func selfCheck(sp *spec, opt options, stdout, stderr io.Writer) error {
	bad := 0
	for i := range workloads {
		wl := &workloads[i]
		var runs [2]*result
		for k := range runs {
			res, err := runOne(wl, opt, io.Discard, stderr)
			if err != nil {
				return err
			}
			if res.failed != 0 {
				return fmt.Errorf("%s: %d of %d operations failed", wl.name, res.failed, res.attempted)
			}
			runs[k] = res
		}
		for _, d := range sp.EndToEnd {
			a, b := runs[0].e2e[d.Name].value, runs[1].e2e[d.Name].value
			diff := ratio(b-a, a)
			verdict := "ok"
			if diff > d.Bound || -diff > d.Bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Fprintf(stdout, "%-17s %-18s a=%-12.6g b=%-12.6g diff=%+.4f bound=%.2f %s\n", wl.name, d.Name, a, b, diff, d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload × metric pairs disagree by more than their bound", bad)
	}
	return nil
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 5, "seed of the input generators")
		seconds  = fs.Float64("seconds", -1, "timed-region budget in seconds (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1 records spans at the layer boundaries and reports the per-layer metrics")
		spans    = fs.String("spans", "", "span file of a traced run (default <tmp>/spans-<workload>.jsonl)")
		aa       = fs.Bool("aa", false, "run every workload twice and compare the runs against the bounds")
		quick    = fs.Bool("quick", false, "tiny sizing, one rep: a smoke run, not a measurement")
		tmp      = fs.String("tmp", ".bench_build/run", "scratch directory, inside the checkout")
		specPath = fs.String("spec", "BENCHMARK.json", "the ledger's metric table, relative to the working directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, spans: *spans, tmp: *tmp}
	if opt.seconds < 0 {
		opt.seconds = float64(sp.RunSeconds)
	}
	if opt.quick {
		opt.seconds = 0 // minimum reps only
	}
	if *aa {
		if err := selfCheck(sp, opt, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	run := workloads
	if *name != "all" {
		wl := findWorkload(*name)
		if wl == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		run = []workload{*wl}
	}
	for i := range run {
		res, err := runOne(&run[i], opt, stdout, stderr)
		if err == nil {
			err = emit(sp, res, opt.trace, stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return 0 // a failed check is reported in the result's "correct", not the exit code
}
