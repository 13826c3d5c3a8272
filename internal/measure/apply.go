// The apply engine: stage 2 of a coalesced probe round, parallelized.
//
// The serial round drain applies state and delivers observations in one
// loop over the results slice, in watch-admission order. That order is
// part of the determinism contract (DESIGN.md §10): observers must see
// the exact sequence the per-domain scheduler would have produced. The
// apply engine keeps the contract while fanning Fleet.apply across
// ApplyWorkers goroutines: state mutation is already safe at any width
// (applies stripe onto the watch registry's shard locks), so only
// *delivery* needs ordering — a sequencing reorder buffer in front of
// the observers holds completed slots and releases them strictly in
// slot (= admission) order.
//
// The drain is pipelined, not phased: stage 1 pushes each result slot
// into the ready channel the moment its slice lands, apply workers
// consume slots in arrival order, and the round goroutine pumps the
// reorder buffer — so applies overlap the tail of the probe stage and
// delivery overlaps the tail of the applies. DESIGN.md §14.
package measure

import (
	"sync"
	"time"
)

// reorderBuffer resequences out-of-order slot completions into slot
// order: a slot-indexed ring with a release cursor, no sorting. Workers
// call complete(slot) in whatever order their applies finish; the
// single release pump calls release() and receives maximal contiguous
// ranges of completed slots, always starting at the cursor.
type reorderBuffer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	done   []bool
	cursor int
	// held counts completions that arrived ahead of the cursor — the
	// resequencing work the buffer actually performed. Scheduling-
	// dependent, so it feeds an operational counter only, never a
	// determinism assertion.
	held int64
}

func newReorderBuffer(n int) *reorderBuffer {
	b := &reorderBuffer{done: make([]bool, n)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// complete marks slot's apply finished. A completion at the cursor
// wakes the release pump; one ahead of the cursor is held until the
// cursor reaches it.
func (b *reorderBuffer) complete(slot int) {
	b.mu.Lock()
	b.done[slot] = true
	if slot == b.cursor {
		b.cond.Signal()
	} else {
		b.held++
	}
	b.mu.Unlock()
}

// release blocks until the slot at the cursor completes, then returns
// the maximal contiguous completed range [lo, hi) and advances the
// cursor past it. ok=false once every slot has been released. Intended
// for a single pump goroutine.
func (b *reorderBuffer) release() (lo, hi int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cursor >= len(b.done) {
		return 0, 0, false
	}
	for !b.done[b.cursor] {
		b.cond.Wait()
	}
	lo = b.cursor
	for b.cursor < len(b.done) && b.done[b.cursor] {
		b.cursor++
	}
	return lo, b.cursor, true
}

// roundPipelined is the apply engine's round drain (ApplyWorkers ≥ 1).
// Stage 1 runs exactly as the serial path does, but lands completed
// result ranges into ready; ApplyWorkers goroutines drain ready,
// applying each slot's state under its shard lock; the round goroutine
// itself is the delivery pump, releasing observations through the
// reorder buffer in admission order.
func (f *Fleet) roundPipelined(round roundBuf, now time.Time) {
	targets, results := round.targets, round.results
	n := len(targets)

	if n == 1 {
		// Admission probes and single-watch rounds: the general path
		// degenerates to probe-apply-deliver with no goroutines. The
		// counters advance exactly as a one-slot fan-out would — one
		// apply, one in-order release, nothing held — so Report stays
		// independent of round width.
		f.probeStage(round, now, nil)
		f.apply(targets[0], &results[0], now)
		f.applies.Add(1)
		f.releases.Add(1)
		f.deliver(results)
		return
	}

	buf := newReorderBuffer(n)
	ready := make(chan int, n)
	go func() {
		defer close(ready)
		f.probeStage(round, now, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ready <- i
			}
		})
	}()

	aw := f.cfg.ApplyWorkers
	if aw > n {
		aw = n
	}
	var wg sync.WaitGroup
	wg.Add(aw)
	for w := 0; w < aw; w++ {
		go func() {
			defer wg.Done()
			for i := range ready {
				f.apply(targets[i], &results[i], now)
				f.applies.Add(1)
				buf.complete(i)
			}
		}()
	}

	for {
		lo, hi, ok := buf.release()
		if !ok {
			break
		}
		f.releases.Add(int64(hi - lo))
		f.deliver(results[lo:hi])
	}
	wg.Wait()
	// The pump only exits after every slot released, so the buffer is
	// quiescent; wg.Wait orders the workers' held writes before this read.
	f.heldBack.Add(buf.held)
}

// deliver fires the observer list for each result, in slice order.
func (f *Fleet) deliver(results []roundResult) {
	obsFns := f.observers.Load()
	if obsFns == nil {
		return
	}
	for i := range results {
		for _, fn := range *obsFns {
			fn(results[i].obs)
		}
	}
}
