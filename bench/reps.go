package main

import (
	"time"
)

// timing is what the timed region of a closed-loop workload yields.
type timing struct {
	walls       []float64 // seconds per untraced rep
	tracedWalls []float64 // seconds per traced rep (traced runs only)
	items       int64     // items processed by all timed reps
	mem         memDelta  // runtime.MemStats movement over the region
}

// timedReps repeats rep until the time budget is spent and at least
// minReps have run. On a traced run, untraced and traced reps alternate in
// pairs, so the two medians that make trace_overhead_ratio see the same
// machine drift. rep is handed the tracer (nil for an untraced rep) and a
// run id for its spans; it times its own measured section, so its checks
// stay outside the wall time.
func (e *env) timedReps(minReps int, rep func(tr *tracer, run int) (wall time.Duration, items int64)) timing {
	var t timing
	budget := time.Duration(e.seconds * float64(time.Second))
	mark := markMem()
	start := time.Now()
	for i := 0; ; i++ {
		midPair := e.tr != nil && i%2 == 1
		if i >= minReps && !midPair && time.Since(start) >= budget {
			break
		}
		var tr *tracer
		if i%2 == 1 {
			tr = e.tr // traced runs alternate; untraced runs have e.tr == nil
		}
		wall, items := rep(tr, i+1)
		t.items += items
		if tr != nil {
			t.tracedWalls = append(t.tracedWalls, wall.Seconds())
		} else {
			t.walls = append(t.walls, wall.Seconds())
		}
	}
	t.mem = mark.delta()
	return t
}

// tailSamples is the size from which a window of samples resolves a 90th
// percentile: ten samples lie beyond it.
const tailSamples = 100

// endToEnd fills the end-to-end metrics every workload reports. deliverMs
// holds the workload's delivery latencies — request (or due time) to
// result in the caller's hands — in milliseconds, in windows of
// consecutive samples (a rep, a second of the open-loop schedule, 100
// back-to-back calls). Percentiles are taken within each window. The
// median is reported from the median window. The 90th percentile is
// reported from the lower-decile window: a time slice the host gives a
// neighbour lands in the slowest tenth of a window and moves its p90
// directly, so the quiet windows are the ones that measure the program. A
// workload whose windows hold fewer than tailSamples (campaigns and
// world_build time a few reps in a run) resolves no tail, and its median
// is reported for both.
func (r *result) endToEnd(setup []float64, walls []float64, deliverMs [][]float64, items int64, mem memDelta) {
	r.e2e["setup_s"] = sample{median(setup), len(setup)}
	r.e2e["wall_s"] = sample{median(walls), len(walls)}
	r.e2e["mallocs_per_item"] = sample{ratio(mem.mallocs, float64(items)), int(items)}
	r.e2e["alloc_kb_per_item"] = sample{ratio(mem.allocBytes, float64(items)) / 1024, int(items)}
	var p50s, p90s []float64
	n := 0
	for _, window := range deliverMs {
		sorted := sortedCopy(window)
		p50s = append(p50s, percentile(sorted, 0.5))
		if len(window) >= tailSamples {
			p90s = append(p90s, percentile(sorted, 0.9))
		}
		n += len(window)
	}
	p50 := median(p50s)
	p90 := p50
	if len(p90s) > 0 {
		p90 = percentile(sortedCopy(p90s), 0.1)
	}
	r.e2e["deliver_p50_ms"] = sample{p50, n}
	r.e2e["deliver_p90_ms"] = sample{p90, n}
}

// runtimeLayer fills the runtime.* per-layer metrics, which explain wall_s
// against mallocs_per_item, and the tracing overhead.
func (r *result) runtimeLayer(mem memDelta, untraced, traced float64) {
	r.setLayer("runtime.gc_cycles", mem.gcCycles)
	r.setLayer("runtime.gc_pause_ms", ms(mem.gcPause))
	r.setLayer("runtime.heap_sys_mb", mem.heapSysMB)
	if untraced > 0 && traced > 0 {
		r.setLayer("trace_overhead_ratio", traced/untraced-1)
	}
}

// layerAcc collects one value per traced rep for each per-layer metric;
// the median is reported (for a deterministic count, that is the count).
type layerAcc map[string][]float64

func (a layerAcc) add(name string, v float64) { a[name] = append(a[name], v) }

func (r *result) layerMedians(a layerAcc) {
	for name, v := range a {
		r.layer[name] = sample{median(v), len(v)}
	}
}

func scale(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}
