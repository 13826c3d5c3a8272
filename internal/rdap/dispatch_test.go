package rdap

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darkdns/internal/simclock"
)

// countingBackend is a Querier that tracks call concurrency.
type countingBackend struct {
	calls atomic.Int64
	cur   atomic.Int64
	max   atomic.Int64
	delay time.Duration // wall-clock work per call
}

func (b *countingBackend) Domain(_ context.Context, name string) (*Record, error) {
	c := b.cur.Add(1)
	for {
		m := b.max.Load()
		if c <= m || b.max.CompareAndSwap(m, c) {
			break
		}
	}
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.cur.Add(-1)
	b.calls.Add(1)
	return &Record{Domain: name, Registrar: "test", Registered: t0}, nil
}

func TestDispatcherDrainsPerTLDQueues(t *testing.T) {
	clk := simclock.NewSim(t0)
	backend := &countingBackend{}
	d := NewDispatcher(DispatcherConfig{Workers: 4}, clk, backend)

	var done atomic.Int64
	var batch DomainBatch
	for i := 0; i < 20; i++ {
		tld := "com"
		if i%2 == 1 {
			tld = "shop"
		}
		batch = append(batch, Query{
			Domain: fmt.Sprintf("d%d.%s", i, tld),
			Delay:  time.Duration(i) * time.Minute,
			Done: func(rec *Record, err error, _ time.Time) {
				if err != nil || rec == nil {
					t.Errorf("unexpected outcome: %v, %v", rec, err)
				}
				done.Add(1)
			},
		})
	}
	if got := d.EnqueueBatch(batch); got != 20 {
		t.Fatalf("accepted %d of 20", got)
	}
	if s := d.Stats(); s.Enqueued != 20 || s.Pending != 20 || s.Completed != 0 {
		t.Fatalf("pre-drain stats: %+v", s)
	}
	clk.Run()
	if done.Load() != 20 {
		t.Fatalf("done callbacks: %d of 20", done.Load())
	}
	s := d.Stats()
	if s.Completed != 20 || s.Pending != 0 || s.Shed != 0 || s.Failed != 0 {
		t.Fatalf("post-drain stats: %+v", s)
	}
	if s.TLDs != 2 {
		t.Errorf("TLD queues: %d, want 2", s.TLDs)
	}
	// Latency under the sim clock is exactly the queueing delay: mean of
	// 0..19 minutes over both queues.
	if want := 9*time.Minute + 30*time.Second; s.AvgLatency != want {
		t.Errorf("avg latency %v, want %v", s.AvgLatency, want)
	}
	per := d.TLDStats()
	if len(per) != 2 || per[0].TLD != "com" || per[1].TLD != "shop" {
		t.Fatalf("per-TLD stats: %+v", per)
	}
	if per[0].Completed != 10 || per[1].Completed != 10 {
		t.Errorf("per-TLD completions: %+v", per)
	}
}

// TestDispatcherShedsAtQueueDepth: a saturated TLD queue must shed load
// with ErrRateLimited — synchronously and without blocking the enqueuer —
// rather than queueing without bound or stalling ingest.
func TestDispatcherShedsAtQueueDepth(t *testing.T) {
	clk := simclock.NewSim(t0)
	backend := &countingBackend{}
	d := NewDispatcher(DispatcherConfig{Workers: 2, QueueDepth: 4}, clk, backend)

	var shedErrs atomic.Int64
	accepted := 0
	doneCh := make(chan struct{}, 16)
	for i := 0; i < 10; i++ {
		ok := d.Enqueue(Query{
			Domain: fmt.Sprintf("d%d.com", i),
			Delay:  time.Second,
			Done: func(rec *Record, err error, _ time.Time) {
				if errors.Is(err, ErrRateLimited) {
					shedErrs.Add(1)
				}
				doneCh <- struct{}{}
			},
		})
		if ok {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted %d, want 4 (QueueDepth)", accepted)
	}
	// The 6 shed callbacks ran synchronously inside Enqueue, before any
	// clock advance.
	if got := shedErrs.Load(); got != 6 {
		t.Fatalf("shed callbacks before drain: %d, want 6", got)
	}
	clk.Run()
	for i := 0; i < 10; i++ {
		<-doneCh
	}
	s := d.Stats()
	if s.Enqueued != 4 || s.Shed != 6 || s.Completed != 4 || s.Pending != 0 {
		t.Fatalf("stats: %+v", s)
	}
	if s.MaxDepth != 4 {
		t.Errorf("max depth %d, want 4", s.MaxDepth)
	}
	if backend.calls.Load() != 4 {
		t.Errorf("backend calls %d, want 4 (shed queries never reach it)", backend.calls.Load())
	}
	// A drained queue accepts again.
	if !d.Enqueue(Query{Domain: "later.com", Done: func(*Record, error, time.Time) { doneCh <- struct{}{} }}) {
		t.Fatal("post-drain enqueue rejected")
	}
	clk.Run()
	<-doneCh
}

// TestDispatcherInflightCap: under the real clock, concurrent drains for
// one TLD must never execute more than Inflight queries at once, however
// wide the worker pool is.
func TestDispatcherInflightCap(t *testing.T) {
	backend := &countingBackend{delay: 2 * time.Millisecond}
	d := NewDispatcher(DispatcherConfig{Workers: 8, Inflight: 2}, simclock.Real{}, backend)

	const n = 32
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		d.Enqueue(Query{
			Domain: fmt.Sprintf("d%d.com", i),
			Done:   func(*Record, error, time.Time) { wg.Done() },
		})
	}
	wg.Wait()
	if got := backend.max.Load(); got > 2 {
		t.Errorf("max concurrent executions %d, want ≤ 2", got)
	}
	if backend.calls.Load() != n {
		t.Errorf("backend calls %d, want %d", backend.calls.Load(), n)
	}
	if s := d.Stats(); s.Completed != n || s.Pending != 0 {
		t.Errorf("stats: %+v", s)
	}
}

// TestDispatcherFailureInjectionDeterministic: dispatcher-side injection
// must be a pure function of (seed, domain) — identical across engine
// instances and worker widths, and roughly matching the configured rate.
func TestDispatcherFailureInjectionDeterministic(t *testing.T) {
	outcomes := func(workers int) map[string]bool {
		clk := simclock.NewSim(t0)
		d := NewDispatcher(DispatcherConfig{Workers: workers, FailureRate: 0.5, Seed: 42}, clk, &countingBackend{})
		var mu sync.Mutex
		failed := make(map[string]bool)
		for i := 0; i < 400; i++ {
			dom := fmt.Sprintf("d%d.com", i)
			d.Enqueue(Query{Domain: dom, Done: func(rec *Record, err error, _ time.Time) {
				mu.Lock()
				failed[dom] = err != nil
				mu.Unlock()
			}})
		}
		clk.Run()
		return failed
	}
	a, b := outcomes(1), outcomes(8)
	nFail := 0
	for dom, f := range a {
		if b[dom] != f {
			t.Fatalf("injection for %s differs across instances", dom)
		}
		if f {
			nFail++
		}
	}
	if nFail < 120 || nFail > 280 {
		t.Errorf("injected failures %d of 400, want ≈200", nFail)
	}
}

// TestDispatchEngineRace hammers the whole engine concurrently — Mux
// Handle/RDAPDomain, RateLimiter Allow, Dispatcher Enqueue/Stats — and
// relies on -race to flag unsynchronized access (the CI race job runs
// this; it is the regression test for the lock-free Mux and striped
// limiter rebuild).
func TestDispatchEngineRace(t *testing.T) {
	mux := NewMux()
	mux.Handle("com", BackendFunc(func(name string) (*Record, error) {
		return &Record{Domain: name, Registered: t0}, nil
	}))
	limiter := NewRateLimiter(1000, 50, nil)
	d := NewDispatcher(DispatcherConfig{Workers: 4, Inflight: 8}, simclock.Real{}, muxQuerier{mux})

	const perWorker = 200
	var wg sync.WaitGroup
	var done sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(4)
		go func(w int) { // bootstrap-table churn
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				mux.Handle(fmt.Sprintf("tld%d-%d", w, i), BackendFunc(func(name string) (*Record, error) {
					return nil, ErrNotFound
				}))
			}
		}(w)
		go func(w int) { // lookup traffic
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := mux.RDAPDomain(fmt.Sprintf("x%d.com", i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func(w int) { // limiter traffic across many keys
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				limiter.Allow(fmt.Sprintf("10.0.%d.%d", w, i%32))
			}
		}(w)
		go func(w int) { // dispatch traffic plus stats readers
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				done.Add(1)
				d.Enqueue(Query{
					Domain: fmt.Sprintf("d%d-%d.com", w, i),
					Done:   func(*Record, error, time.Time) { done.Done() },
				})
				if i%50 == 0 {
					d.Stats()
					d.TLDStats()
				}
			}
		}(w)
	}
	wg.Wait()
	done.Wait()
	if s := d.Stats(); s.Completed != 4*perWorker || s.Pending != 0 {
		t.Fatalf("stats after race: %+v", s)
	}
}

// muxQuerier adapts a Mux to Querier for dispatcher tests (mirroring
// core.MuxQuerier without importing core).
type muxQuerier struct{ mux *Mux }

func (q muxQuerier) Domain(_ context.Context, name string) (*Record, error) {
	return q.mux.RDAPDomain(name)
}
