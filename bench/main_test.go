package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"darkdns/internal/analysis"
	"darkdns/internal/measure"
	"darkdns/internal/rdap"
)

// go test runs in bench/; the ledger's table sits one level up.
const specPath = "../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecWithinTheContract checks BENCHMARK.json against the limits its
// consumer enforces, and that it names exactly the workloads compiled in.
func TestSpecWithinTheContract(t *testing.T) {
	sp := testSpec(t)
	if len(sp.EndToEnd) < 1 || len(sp.EndToEnd) > 16 || len(sp.PerLayer) < 1 || len(sp.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want 1–16 and 1–128", len(sp.EndToEnd), len(sp.PerLayer))
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Fatalf("run_seconds %d", sp.RunSeconds)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better=%q", d.Name, d.Better)
		}
	}
	for _, d := range sp.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d compiled in", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q compiled in", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestEveryWorkloadEmitsTheLedger drives each workload end to end at the
// quick sizing, untraced and traced, and checks the output contract: the
// metric set of BENCHMARK.json exactly, no failed operation, a span file,
// and no goroutine left behind.
func TestEveryWorkloadEmitsTheLedger(t *testing.T) {
	sp := testSpec(t)
	hashes := map[string]string{}
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.name+"/trace="+trace, func(t *testing.T) {
				tmp := t.TempDir()
				baseline := runtime.NumGoroutine()
				var stdout, stderr bytes.Buffer
				code := realMain([]string{"--workload", wl.name, "--seed", "7", "--seconds", "1", "--trace", trace, "-quick", "-tmp", tmp, "-spec", specPath}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
				}
				if n := runtime.NumGoroutine(); n > baseline {
					t.Errorf("%d goroutines after the run, %d before", n, baseline)
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var got struct {
					Correct   *bool `json:"correct"`
					Attempted int64 `json:"attempted"`
					Failed    int64 `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&got); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
				}
				if got.Correct == nil || !*got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\nstderr: %s", got.Correct, got.Attempted, got.Failed, stderr.String())
				}
				want := sp.EndToEnd
				if trace == "1" {
					want = sp.PerLayer
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("%d metrics in the result, %d in BENCHMARK.json", len(got.Metrics), len(want))
				}
				printed := map[string]int{}
				for _, l := range lines[:len(lines)-1] {
					if !strings.HasPrefix(l, "#") {
						printed[strings.Fields(l)[0]]++
					}
				}
				for _, d := range want {
					m, ok := got.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("%s: missing from the result or unit %q != %q", d.Name, m.Unit, d.Unit)
					}
					if trace == "0" && !(m.Value > 0) {
						t.Errorf("%s = %g; end-to-end metrics are never 0", d.Name, m.Value)
					}
					if printed[d.Name] > 1 || (trace == "0" && printed[d.Name] != 1) {
						t.Errorf("%s printed %d times", d.Name, printed[d.Name])
					}
				}
				for _, l := range lines {
					if h, ok := strings.CutPrefix(l, "# report_hash="); ok {
						hashes[wl.name+trace] = h
					}
				}
				if trace == "1" {
					checkSpanFile(t, filepath.Join(tmp, "spans-"+wl.name+".jsonl"))
				}
			})
		}
	}
	if h := hashes["campaign_serial0"]; h == "" || h != hashes["campaign_engines0"] || h != hashes["campaign_serial1"] || h != hashes["campaign_engines1"] {
		t.Errorf("campaign report hashes differ across paths and tracing: %v", hashes)
	}
}

// checkSpanFile checks that every line parses, spans are closed and point
// at an earlier parent, and at least one root span exists.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	roots, spans := 0, 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec struct {
			ID, Parent int
			Name, Seam string
			Start      int64 `json:"start_ns"`
			End        int64 `json:"end_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if rec.Seam != "" {
			continue
		}
		spans++
		if rec.Name == "" || rec.ID != spans || rec.Parent >= rec.ID || rec.End < rec.Start {
			t.Errorf("malformed span %+v", rec)
		}
		if rec.Parent == 0 {
			roots++
		}
	}
	if roots == 0 {
		t.Errorf("%s holds %d spans and no root", path, spans)
	}
}

func TestTracedCampaignReproducesAnalysisRun(t *testing.T) {
	e := &env{seed: 11, width: 2, size: quickSizing}
	for _, engines := range []bool{false, true} {
		cfg := campaignConfig(e, engines)
		want, _, err := reportHash(analysis.Run(cfg))
		if err != nil {
			t.Fatal(err)
		}
		acc := layerAcc{}
		_, got, err := tracedCampaign(cfg, newTracer(), 0, 1, acc)
		if err != nil || got != want {
			t.Errorf("engines=%t: traced assembly hash %s (err=%v), analysis.Run %s", engines, got, err, want)
		}
		if acc["measure.probes"][0] != acc["measure.observations"][0] || acc["measure.probes"][0] == 0 {
			t.Errorf("engines=%t: %v probes, %v observations", engines, acc["measure.probes"], acc["measure.observations"])
		}
		if engines == (acc["core.ingest_busy_s"][0] > 0) || acc["worldsim.probe_backend_calls"][0] == 0 {
			t.Errorf("engines=%t: ingest busy %v s, %v backend calls", engines, acc["core.ingest_busy_s"], acc["worldsim.probe_backend_calls"])
		}
	}
}

type plainBackend struct{ staticBackend }
type batchOnly struct{ staticBackend }
type mailOnly struct{ staticBackend }
type batchMail struct{ staticBackend }

func (batchOnly) ProbeBatch([]string, bool) []measure.ProbeResult { return nil }
func (batchMail) ProbeBatch([]string, bool) []measure.ProbeResult { return nil }
func (mailOnly) LookupMX(string) []string                         { return nil }
func (mailOnly) LookupTXT(string) []string                        { return nil }
func (batchMail) LookupMX(string) []string                        { return nil }
func (batchMail) LookupTXT(string) []string                       { return nil }

type plainQuerier struct{}

func (plainQuerier) Domain(context.Context, string) (*rdap.Record, error) {
	return nil, rdap.ErrNotFound
}

type atQuerier struct{ plainQuerier }

func (atQuerier) DomainAt(context.Context, string, time.Time) (*rdap.Record, error) {
	return &rdap.Record{}, nil
}

// TestDecoratorsKeepInterfaceSets: the fleet and the dispatcher pick their
// code path by type assertion, so a decorator must satisfy exactly the
// optional interfaces of what it wraps — no fewer and no more.
func TestDecoratorsKeepInterfaceSets(t *testing.T) {
	s := newTracer().seam("test", 0, &coverage{})
	for _, inner := range []measure.Backend{plainBackend{}, batchOnly{}, mailOnly{}, batchMail{}} {
		wrapped := traceBackend(inner, s)
		_, wantBatch := inner.(measure.BatchBackend)
		_, gotBatch := wrapped.(measure.BatchBackend)
		_, wantMail := inner.(measure.MailBackend)
		_, gotMail := wrapped.(measure.MailBackend)
		if wantBatch != gotBatch || wantMail != gotMail {
			t.Errorf("%T: batch %t→%t mail %t→%t", inner, wantBatch, gotBatch, wantMail, gotMail)
		}
		wrapped.AuthoritativeNS("a.shop")
		wrapped.LookupA("a.shop")
		wrapped.LookupAAAA("a.shop")
	}
	if s.count() != 12 {
		t.Errorf("seam counted %v calls, want 12", s.count())
	}
	var failed atomic.Int64
	for _, inner := range []rdap.Querier{plainQuerier{}, atQuerier{}} {
		wrapped := traceQuerier(inner, s, &failed)
		_, want := inner.(rdap.QuerierAt)
		at, got := wrapped.(rdap.QuerierAt)
		if want != got {
			t.Errorf("%T: QuerierAt %t→%t", inner, want, got)
		}
		wrapped.Domain(context.Background(), "a.shop")
		if got {
			at.DomainAt(context.Background(), "a.shop", time.Time{})
		}
	}
	if failed.Load() != 2 || s.count() != 15 {
		t.Errorf("%d failed queries and %v calls, want 2 and 15", failed.Load(), s.count())
	}
}

func TestPercentiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if m := median(v); m != 3 {
		t.Errorf("median %g", m)
	}
	if v[0] != 5 {
		t.Error("median sorted its argument in place")
	}
	s := sortedCopy([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110})
	for q, want := range map[float64]float64{0: 10, 0.5: 60, 0.9: 100, 0.95: 105, 1: 110} {
		if got := percentile(s, q); got != want {
			t.Errorf("p%g = %g, want %g", q*100, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 || median([]float64{7}) != 7 || median([]float64{1, 2}) != 1.5 {
		t.Error("edge cases")
	}
}

// The delivery tail comes from the quiet windows: eleven windows of 101
// samples, nine of them disturbed in their slowest fifth, report the
// undisturbed p90; windows too small to resolve a tail report the median.
func TestDeliveryTailIgnoresDisturbedWindows(t *testing.T) {
	window := func(stall float64) []float64 {
		w := make([]float64, 101)
		for i := range w {
			w[i] = float64(i) // p50 = 50, p90 = 90
			if i > 80 {
				w[i] += stall
			}
		}
		return w
	}
	windows := [][]float64{window(0), window(0)}
	for i := 0; i < 9; i++ {
		windows = append(windows, window(1000))
	}
	r := newResult()
	r.endToEnd([]float64{1}, []float64{1}, windows, 1, memDelta{})
	if p50, p90 := r.e2e["deliver_p50_ms"].value, r.e2e["deliver_p90_ms"].value; p50 != 50 || p90 != 90 {
		t.Errorf("p50 %g, p90 %g; want 50, 90", p50, p90)
	}
	r.endToEnd([]float64{1}, []float64{1}, [][]float64{{5, 1, 4, 2, 30}}, 1, memDelta{})
	if p50, p90 := r.e2e["deliver_p50_ms"].value, r.e2e["deliver_p90_ms"].value; p50 != 4 || p90 != 4 {
		t.Errorf("five samples: p50 %g, p90 %g; want 4, 4", p50, p90)
	}
}

func TestCoverageUnitesOverlappingCalls(t *testing.T) {
	var c coverage
	c.enter(10) // [10,50] with a nested [20,30] and an overlapping [40,70]
	c.enter(20)
	c.exit(30)
	c.enter(40)
	c.exit(50)
	c.exit(70)
	c.enter(100) // disjoint [100,105]
	c.exit(105)
	if got := c.covered.Load(); got != 65 {
		t.Errorf("covered %d ns, want 65", got)
	}
}

func TestGeneratorsFollowTheSeed(t *testing.T) {
	a, b, c := genFeedInput(5, 500, 16, time.Millisecond), genFeedInput(5, 500, 16, time.Millisecond), genFeedInput(6, 500, 16, time.Millisecond)
	if a.hash != b.hash || a.hash == c.hash || a.keys[17] != b.keys[17] || !bytes.Equal(a.values[17], b.values[17]) {
		t.Errorf("feed input: same seed %s/%s, other seed %s", a.hash, b.hash, c.hash)
	}
	if a.dueOffset(15) != 0 || a.dueOffset(16) != time.Millisecond || a.dueOffset(499) != 31*time.Millisecond {
		t.Error("publish schedule is not bursts of 16 per period")
	}
	w1, w2, w3 := genWireInput(5, 30), genWireInput(5, 30), genWireInput(6, 30)
	if w1.hash != w2.hash || w1.hash == w3.hash {
		t.Errorf("wire input: same seed %s/%s, other seed %s", w1.hash, w2.hash, w3.hash)
	}
	delegated := 0
	for _, ns := range w1.ns {
		if ns != nil {
			delegated++
		}
	}
	if share := float64(delegated) / float64(len(w1.ns)); share < 0.7 || share > 0.8 {
		t.Errorf("%.2f of names delegated, want about ¾", share)
	}
	asked := map[int]int{} // name → batch it was fresh in (prime batches are negative)
	for b, idx := range w1.prime {
		for _, k := range idx {
			asked[k] = b - len(w1.prime)
		}
	}
	for b, idx := range w1.batches {
		fresh, repeated, inBatch := 0, 0, map[int]bool{}
		for _, k := range idx {
			if inBatch[k] {
				t.Fatalf("batch %d asks name %d twice", b, k)
			}
			inBatch[k] = true
			if first, ok := asked[k]; !ok {
				fresh++
			} else if b-first >= 1 && b-first <= wireLookback {
				repeated++
			} else {
				t.Fatalf("batch %d repeats a name from batch %d", b, first)
			}
		}
		for _, k := range idx {
			if _, ok := asked[k]; !ok {
				asked[k] = b
			}
		}
		if fresh != wireFresh || repeated != wireRepeat {
			t.Fatalf("batch %d: %d fresh + %d repeated", b, fresh, repeated)
		}
	}
}

func TestUnknownWorkloadExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-workload", "nope", "-quick", "-spec", specPath}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "unknown workload") {
		t.Errorf("stdout %q stderr %q", stdout.String(), stderr.String())
	}
}

func TestFailedCheckIsCountedAndNamed(t *testing.T) {
	var stderr bytes.Buffer
	e := &env{stderr: &stderr}
	e.failf(3, "rep %d: wrong", 2)
	if e.failed != 3 || !strings.Contains(stderr.String(), "rep 2: wrong") {
		t.Errorf("failed=%d stderr=%q", e.failed, stderr.String())
	}
}
