package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanRec is one coarse span: a stage, a rep, a LookupBatch call —
// thousands per run. Spans of one rep share run_id; parent is the id of
// the span that caused this one (0 for a root). Self time of a span is
// its duration minus the part of it its children cover.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them as JSON lines when the run
// ends. A nil *tracer is the untraced run: begin/end still time the
// section (workloads need stage durations either way) but record nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []spanRec
	seams []seamRec
}

// seamRec is one per-call seam's aggregate, written after the spans.
type seamRec struct {
	Seam  string  `json:"seam"`
	Run   int     `json:"run_id"`
	Calls int64   `json:"calls"`
	Busy  int64   `json:"busy_ns"`
	Hist  []int64 `json:"log2_ns_hist"` // Hist[b] counts calls with 2^(b-1) ≤ ns < 2^b
	s     *seam
}

// seam registers a per-call accumulator on the trace's clock; on the
// untraced run it returns the nil seam, whose enter and exit do nothing.
func (t *tracer) seam(name string, run int, cover *coverage) *seam {
	if t == nil {
		return nil
	}
	s := &seam{epoch: t.epoch, cover: cover}
	t.mu.Lock()
	t.seams = append(t.seams, seamRec{Seam: name, Run: run, s: s})
	t.mu.Unlock()
	return s
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type openSpan struct {
	id    int
	start time.Time
}

func (t *tracer) begin(name string, parent, run int) openSpan {
	s := openSpan{start: time.Now()}
	if t == nil {
		return s
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: int64(s.start.Sub(t.epoch))})
	s.id = len(t.spans)
	t.mu.Unlock()
	return s
}

func (t *tracer) end(s openSpan) time.Duration {
	now := time.Now()
	if t != nil {
		t.mu.Lock()
		t.spans[s.id-1].End = int64(now.Sub(t.epoch))
		t.mu.Unlock()
	}
	return now.Sub(s.start)
}

// timed brackets fn in a span and returns how long it took.
func (t *tracer) timed(name string, parent, run int, fn func()) time.Duration {
	s := t.begin(name, parent, run)
	fn()
	return t.end(s)
}

func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err == nil {
			err = enc.Encode(&t.spans[i])
		}
	}
	for _, r := range t.seams {
		r.Calls, r.Busy = int64(r.s.count()), r.s.busy.Load()
		for b := range r.s.hist {
			r.Hist = append(r.Hist, r.s.hist[b].Load())
		}
		if err == nil {
			err = enc.Encode(&r)
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
