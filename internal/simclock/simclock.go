// Package simclock provides virtual time for deterministic simulation.
//
// All DarkDNS substrates take a Clock rather than calling time.Now directly,
// which lets the three-month measurement campaign of the paper run in
// seconds of wall time while the exact same code paths serve real traffic
// when backed by the real-time clock.
//
// The package provides two implementations:
//
//   - Real: a thin adapter over the time package.
//   - Sim: a discrete-event engine. Goroutine-safe; timers fire in
//     timestamp order when the owner calls Advance, Run, RunUntil or
//     RunUntilLookahead.
//
// Sim stores events in a timer wheel (coarse buckets plus an overflow
// heap, wheel.go), so pushing the dominant near-future events is O(1),
// and has one drain loop (drain, below) with two settings. The loop pops
// every event sharing the earliest timestamp as one group and fires it in
// (timestamp, schedule-order) order; at a pool width above 1, runs of
// parallel-marked events (AfterPar) inside a group fire through a worker
// pool behind a completion barrier; at a lookahead window of 1 or more,
// effect-tagged events from several future timestamps fire together
// first (lookahead.go). Run, RunUntil and Advance are width 1, window 0.
// Parallel-marked callbacks must be commutative with other same-instant
// parallel callbacks; under that contract, and the tagged-callback
// contract of tags.go, every setting produces byte-identical campaigns —
// the determinism bar the analysis package's width table enforces
// (DESIGN.md §7, §12). Bulk producers (the world builder's commit phase,
// DESIGN.md §9) install whole timelines through ScheduleBatch, one lock
// acquisition per batch.
package simclock

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"

	"darkdns/internal/workpool"
)

// Clock abstracts time for simulation. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// After schedules fn to run once d has elapsed on this clock.
	// fn runs on the clock's dispatch goroutine (Sim) or a new
	// goroutine (Real); it must not block for long.
	After(d time.Duration, fn func())
	// At schedules fn at an absolute instant. Instants not after Now
	// fire on the next dispatch.
	At(t time.Time, fn func())
}

// ParScheduler is the optional Clock extension for callbacks that are
// safe to fire concurrently with other same-instant parallel callbacks.
// Sim's drain may run them on a worker pool when its width is above 1;
// at width 1 (and on clocks without the extension) they fire like any
// other event.
type ParScheduler interface {
	// AfterPar schedules fn like Clock.After while declaring it
	// commutative with every other parallel event at the same instant.
	AfterPar(d time.Duration, fn func())
}

// AfterPar schedules fn on clk, marking it parallel-safe when the clock
// supports the mark, and falling back to clk.After otherwise.
func AfterPar(clk Clock, d time.Duration, fn func()) {
	if ps, ok := clk.(ParScheduler); ok {
		ps.AfterPar(d, fn)
		return
	}
	clk.After(d, fn)
}

// Real is a Clock backed by the machine's real time.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration, fn func()) { time.AfterFunc(d, fn) }

// AfterPar implements ParScheduler: real-time timers already fire on
// their own goroutines, so parallel marking is a no-op.
func (Real) AfterPar(d time.Duration, fn func()) { time.AfterFunc(d, fn) }

// At implements Clock.
func (r Real) At(t time.Time, fn func()) {
	d := time.Until(t)
	if d < 0 {
		d = 0
	}
	time.AfterFunc(d, fn)
}

// Sim is a deterministic discrete-event clock. Events scheduled via After/At
// fire, in timestamp order, when the simulation owner calls Advance, Run,
// RunUntil or RunUntilLookahead. Callbacks run on the draining goroutine
// (or its worker pool at widths above 1) and may schedule further events.
type Sim struct {
	mu  sync.Mutex
	now time.Time
	seq uint64

	// Calendar queue (wheel.go): near-future events bucket into wheel
	// slots tracked by the occ bitmap; events past the horizon overflow
	// into the heap.
	wheel    [wheelSlots]slot
	occ      [wheelSlots / 64]uint64
	wheelLen int
	overflow eventHeap

	// Engine counters (Stats). Atomics: firing happens outside mu and
	// Stats may be read while another goroutine drains.
	scheduled atomic.Int64
	fired     atomic.Int64
	coalesced atomic.Int64
	rounds    atomic.Int64
	maxBatch  atomic.Int64

	// Lookahead counters (lookahead.go).
	windows   atomic.Int64
	specFired atomic.Int64
	conflicts atomic.Int64
	barriers  atomic.Int64

	// laGroups is the currently-firing lookahead window's conflict
	// groups (guarded by mu; nil outside fireWindow). pushEvent routes
	// in-window tagged spawns to a matching group so they fire at their
	// serial position instead of being jumped over.
	laGroups []*laGroup
}

// NewSim returns a simulated clock starting at the given instant.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// After implements Clock.
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	s.push(s.now.Add(d), fn, false)
	s.mu.Unlock()
}

// AfterPar implements ParScheduler: fn fires like After, but a drain wider
// than 1 may run it concurrently with other same-instant parallel events.
// fn must be commutative with them — its effects may not depend on
// ordering within the instant.
func (s *Sim) AfterPar(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	s.push(s.now.Add(d), fn, true)
	s.mu.Unlock()
}

// At implements Clock.
func (s *Sim) At(t time.Time, fn func()) {
	s.mu.Lock()
	s.push(t, fn, false)
	s.mu.Unlock()
}

// Timed is one entry of a bulk schedule: an absolute instant, a callback,
// and the parallel-commutativity mark carrying AfterPar's contract.
type Timed struct {
	At  time.Time
	Fn  func()
	Par bool
}

// ScheduleBatch schedules every entry under a single lock acquisition,
// assigning sequence numbers in slice order — equivalent to calling At
// (or AfterPar, for Par entries) element by element, minus the per-event
// locking. Bulk producers like the world builder's commit phase install
// whole compiled timelines through it. When a batch carries a large
// far-future slab (a compiled campaign lands almost entirely beyond the
// wheel horizon), the slab is appended to the overflow queue raw and
// heapified once — an O(heap) rebuild instead of O(batch·log heap)
// sifts. Firing order is identical either way: it depends only on each
// event's (at, seq), never on heap internals.
func (s *Sim) ScheduleBatch(entries []Timed) {
	if len(entries) == 0 {
		return
	}
	s.mu.Lock()
	far := 0
	for i := range entries {
		at := entries[i].At
		if at.Before(s.now) {
			at = s.now
		}
		if at.Sub(s.now) >= wheelSpan {
			far++
		}
	}
	bulk := far >= 64 && far*4 >= len(s.overflow)
	for i := range entries {
		e := &entries[i]
		at := e.At
		if at.Before(s.now) {
			at = s.now
		}
		if bulk && at.Sub(s.now) >= wheelSpan {
			s.seq++
			s.overflow = append(s.overflow, &event{at: at, seq: s.seq, fn: e.Fn, par: e.Par})
			s.scheduled.Add(1)
			continue
		}
		s.push(at, e.Fn, e.Par)
	}
	if bulk {
		heap.Init(&s.overflow)
	}
	s.mu.Unlock()
}

// Pending reports the number of scheduled events not yet fired.
func (s *Sim) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wheelLen + len(s.overflow)
}

// NextAt returns the timestamp of the earliest pending event.
// ok is false when no events are pending.
func (s *Sim) NextAt() (t time.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev, _ := s.peek()
	if ev == nil {
		return time.Time{}, false
	}
	return ev.at, true
}

// unbounded is the deadline rule for drain-everything modes.
func unbounded(time.Time) (time.Time, bool) { return time.Time{}, false }

// Advance moves simulated time forward by d, firing every event whose
// timestamp falls within the window in order. It returns the number of
// events fired. The deadline derives from now inside the drain's own
// critical section, so a concurrent clock user between entry and drain
// cannot shift it.
func (s *Sim) Advance(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	return s.drain(func(now time.Time) (time.Time, bool) { return now.Add(d), true }, 0, 1)
}

// RunUntil fires events in order until the clock reaches t.
func (s *Sim) RunUntil(t time.Time) int { return s.RunUntilLookahead(t, 0, 1) }

// Run fires events until none remain, returning the count fired. Callbacks
// may schedule more events; Run continues until the queue drains.
func (s *Sim) Run() int { return s.drain(unbounded, 0, 1) }

// RunUntilLookahead is RunUntil with both drain settings exposed: workers
// is the pool width that parallel-marked same-instant events and
// lookahead conflict groups fire on, window how many distinct timestamps
// of effect-disjoint tagged events (tags.go) may fire together — 1
// exercises the tagged machinery without crossing a timestamp, 0 switches
// it off. With commutative parallel callbacks and the tagged contract
// honoured, every (window, workers) produces campaigns byte-identical to
// (0, 1), which is RunUntil. Returns the number of events fired.
func (s *Sim) RunUntilLookahead(t time.Time, window, workers int) int {
	return s.drain(func(time.Time) (time.Time, bool) { return t, true }, window, workers)
}

// drain is the engine's one loop. With a lookahead window it first tries
// to scan a prefix of tagged events and fire it as conflict groups
// (lookahead.go); without one, or when the earliest pending event is
// untagged, it pops the group of events sharing the earliest timestamp,
// commits now to that instant and fires the group — in exact (timestamp,
// seq) order at workers ≤ 1: an event a callback schedules at the current
// instant gets a higher seq than the whole group and fires in the next
// one, where a one-event-at-a-time loop would also have put it. Only
// groups move now: speculative fires leave it untouched, so every
// untagged callback observes exactly the serial clock. deadlineOf
// computes the deadline from now under the initial lock hold — the
// Advance TOCTOU fix — and reports whether the drain is bounded at all.
func (s *Sim) drain(deadlineOf func(time.Time) (time.Time, bool), window, workers int) int {
	fired := 0
	var group []*event
	s.mu.Lock()
	deadline, bounded := deadlineOf(s.now)
	for {
		if window >= 1 {
			if sel, masks := s.scanWindow(window, deadline, bounded); len(sel) > 0 {
				s.windows.Add(1)
				s.mu.Unlock()
				fired += s.fireWindow(sel, masks, workers)
				s.mu.Lock()
				continue
			}
		}
		group = s.popGroup(group[:0], deadline, bounded)
		if len(group) == 0 {
			break
		}
		s.now = group[0].at
		if window >= 1 {
			s.barriers.Add(int64(len(group)))
		}
		s.mu.Unlock()
		s.fireGroup(group, workers)
		fired += len(group)
		s.mu.Lock()
	}
	if bounded && deadline.After(s.now) {
		s.now = deadline
	}
	s.mu.Unlock()
	return fired
}

// fireGroup fires one same-timestamp group. Maximal runs of consecutive
// parallel-marked events execute on the worker pool behind a completion
// barrier; serial events act as ordering barriers at their schedule
// position, so an order-sensitive callback never overlaps anything.
func (s *Sim) fireGroup(group []*event, workers int) {
	s.rounds.Add(1)
	if n := int64(len(group)); n > 1 {
		s.coalesced.Add(n)
		workpool.AtomicMax(&s.maxBatch, n)
	}
	for i := 0; i < len(group); {
		if workers <= 1 || !group[i].par {
			group[i].fire()
			i++
			continue
		}
		j := i + 1
		for j < len(group) && group[j].par {
			j++
		}
		run := group[i:j]
		workpool.Run(len(run), workers, func(k int) { run[k].fire() })
		i = j
	}
	s.fired.Add(int64(len(group)))
}

// Stats are the engine's lifetime counters. Every drain maintains
// Scheduled, Fired, Rounds, Coalesced and MaxBatch (a round is one popped
// same-instant group; coalesced counts events that shared theirs with at
// least one other), so they read the same at any pool width.
type Stats struct {
	Scheduled int64 // events pushed via After/AfterPar/At
	Fired     int64 // callbacks executed
	Coalesced int64 // events fired in a same-instant group of width > 1
	Rounds    int64 // same-instant groups fired
	MaxBatch  int   // widest same-instant group fired
	Pending   int   // scheduled but not yet fired, right now

	// Lookahead counters, zero at window 0. A window is one
	// cross-timestamp round; SpecFired counts events fired at an instant
	// later than their window's first timestamp; Conflicts counts tagged
	// events whose mask intersected an existing conflict group (they
	// joined it as an in-group ordering barrier); Barriers counts the
	// events a lookahead drain had to fire as same-instant groups because
	// the earliest pending event was untagged.
	Windows   int64
	SpecFired int64
	Conflicts int64
	Barriers  int64
}

// Stats returns the engine counters. Safe to call concurrently with
// scheduling and draining.
func (s *Sim) Stats() Stats {
	s.mu.Lock()
	pending := s.wheelLen + len(s.overflow)
	s.mu.Unlock()
	return Stats{
		Scheduled: s.scheduled.Load(),
		Fired:     s.fired.Load(),
		Coalesced: s.coalesced.Load(),
		Rounds:    s.rounds.Load(),
		MaxBatch:  int(s.maxBatch.Load()),
		Pending:   pending,
		Windows:   s.windows.Load(),
		SpecFired: s.specFired.Load(),
		Conflicts: s.conflicts.Load(),
		Barriers:  s.barriers.Load(),
	}
}

// Ticker invokes fn every period on clk until stop is called. It is the
// simulation-friendly replacement for time.Ticker: under a Sim clock the
// callback fires exactly once per simulated period.
type Ticker struct {
	mu      sync.Mutex
	stopped bool
}

// NewTicker starts a ticker on clk. The first firing is one period from now.
func NewTicker(clk Clock, period time.Duration, fn func(now time.Time)) *Ticker {
	t := &Ticker{}
	var arm func()
	arm = func() {
		clk.After(period, func() {
			t.mu.Lock()
			stopped := t.stopped
			t.mu.Unlock()
			if stopped {
				return
			}
			fn(clk.Now())
			arm()
		})
	}
	arm()
	return t
}

// Stop prevents future firings. A firing already dispatched may still run.
func (t *Ticker) Stop() {
	t.mu.Lock()
	t.stopped = true
	t.mu.Unlock()
}
