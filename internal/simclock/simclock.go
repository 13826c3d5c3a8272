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
// and has one drain loop (drain, below). The loop pops every event
// sharing the earliest timestamp as one group and fires it in
// (timestamp, schedule-order) order; at a lookahead window of 1 or more,
// effect-tagged events from several future timestamps fire together
// first, their conflict groups on a pool of the drain's width
// (lookahead.go). Run, RunUntil and Advance are window 0. Under the
// tagged-callback contract of tags.go every setting produces
// byte-identical campaigns — the determinism bar the analysis package's
// width table enforces (DESIGN.md §7, §12). Bulk producers (the world
// builder's commit phase, DESIGN.md §9) install whole timelines through
// ScheduleBatchTagged, one lock acquisition per batch.
package simclock

import (
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

// Real is a Clock backed by the machine's real time.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration, fn func()) { time.AfterFunc(d, fn) }

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
// (or, for a lookahead window's conflict groups, its worker pool) and may
// schedule further events.
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
	s.push(s.now.Add(d), fn)
	s.mu.Unlock()
}

// At implements Clock.
func (s *Sim) At(t time.Time, fn func()) {
	s.mu.Lock()
	s.push(t, fn)
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

// RunUntilLookahead is RunUntil with the lookahead exposed: window is how
// many distinct timestamps of effect-disjoint tagged events (tags.go) may
// fire together — 1 exercises the tagged machinery without crossing a
// timestamp, 0 switches it off — and workers the pool width a window's
// conflict groups fire on (unused at window 0). With the tagged contract
// honoured, every (window, workers) produces campaigns byte-identical to
// window 0, which is RunUntil. Returns the number of events fired.
func (s *Sim) RunUntilLookahead(t time.Time, window, workers int) int {
	return s.drain(func(time.Time) (time.Time, bool) { return t, true }, window, workers)
}

// drain is the engine's one loop. With a lookahead window it first tries
// to scan a prefix of tagged events and fire it as conflict groups
// (lookahead.go); without one, or when the earliest pending event is
// untagged, it pops the group of events sharing the earliest timestamp,
// commits now to that instant and fires the group in exact (timestamp,
// seq) order: an event a callback schedules at the current instant gets a
// higher seq than the whole group and fires in the next one, where a
// one-event-at-a-time loop would also have put it. Only
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
		s.fireGroup(group)
		fired += len(group)
		s.mu.Lock()
	}
	if bounded && deadline.After(s.now) {
		s.now = deadline
	}
	s.mu.Unlock()
	return fired
}

// fireGroup fires one same-timestamp group in schedule order on the
// draining goroutine.
func (s *Sim) fireGroup(group []*event) {
	s.rounds.Add(1)
	if n := int64(len(group)); n > 1 {
		s.coalesced.Add(n)
		workpool.AtomicMax(&s.maxBatch, n)
	}
	for _, ev := range group {
		ev.fire()
	}
	s.fired.Add(int64(len(group)))
}

// Stats are the engine's lifetime counters. Every drain maintains
// Scheduled, Fired, Rounds, Coalesced and MaxBatch (a round is one popped
// same-instant group; coalesced counts events that shared theirs with at
// least one other), so they read the same at any pool width.
type Stats struct {
	Scheduled int64 // events pushed via After/At and the tagged schedulers
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
