// Package workpool provides the bounded work-stealing loop the hot
// paths share — N indexed items executed by up to W goroutines pulling
// from an atomic counter, with a completion barrier — and Engines, the
// one declaration of the widths those paths run at (engines.go). Every
// pooled stage runs on Run: the clock's lookahead conflict groups
// (DESIGN.md §12), the fleet's probe and apply slices (§10, §14) and the
// world builder's compile and commit fan-outs (§8–§9) — so the hottest
// concurrency idiom in the repo has one implementation to review.
//
// Determinism contract: Run promises nothing about execution order, so
// callers must hand it commutative work (or, like the builder, buffer
// order-sensitive effects and apply them serially afterwards); in
// exchange, workers ≤ 1 degenerates to a plain loop on the caller's
// goroutine, which is what makes width 1 of every stage its serial form
// instead of a second code path.
package workpool

import (
	"sync"
	"sync/atomic"
)

// AtomicMax raises m to n if n is larger — the lock-free high-water-mark
// idiom the engines' batch-width counters share.
func AtomicMax(m *atomic.Int64, n int64) {
	for {
		cur := m.Load()
		if n <= cur || m.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Run invokes fn(i) for every i in [0, n), spreading calls over up to
// workers goroutines, and returns once all calls complete. workers ≤ 1
// (or n ≤ 1) executes serially on the caller's goroutine — the barrier
// then costs nothing, which is what keeps single-threaded simulation
// paths byte-identical to parallel ones. fn must be safe for concurrent
// invocation with distinct indices.
func Run(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
