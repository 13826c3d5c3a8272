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
//     timestamp order when the owner calls Advance, Run or RunUntil.
//
// Sim stores events in a timer wheel (coarse buckets plus an overflow
// heap, wheel.go), so pushing the dominant near-future events is O(1),
// and has one drain loop (drain, below). The loop pops every event
// sharing the earliest timestamp as one group, commits Now to that
// instant and fires the group in (timestamp, schedule-order) order on
// the draining goroutine, so every callback reads its own firing instant
// from Now (DESIGN.md §7). Fired events are recycled through a short
// free list, and a Ticker re-arms itself with one bound callback, so the
// steady state of a campaign — a probe round re-arming the next, a
// registry arming its next zone rebuild when a change is pending, the
// daily snapshot ticks — allocates nothing per event.
// Bulk producers (the world builder's commit phase, DESIGN.md §9) install
// whole timelines through ScheduleBatch, one lock acquisition per batch.
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
// fire, in timestamp order, when the simulation owner calls Advance, Run
// or RunUntil. Callbacks run on the draining goroutine and may schedule
// further events.
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

	// free holds zeroed, fired events for push to reuse, at most freeCap
	// of them; group is the drain's same-instant buffer, kept between
	// drains. Together they make the steady state — ticker firings,
	// After-from-callback chains — allocate nothing per event.
	free  []*event
	group []*event

	// Engine counters (Stats). Atomics: firing happens outside mu and
	// Stats may be read while another goroutine drains.
	scheduled atomic.Int64
	fired     atomic.Int64
	coalesced atomic.Int64
	rounds    atomic.Int64
	maxBatch  atomic.Int64
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
	return s.drain(func(now time.Time) (time.Time, bool) { return now.Add(d), true })
}

// RunUntil fires events in order until the clock reaches t, returning the
// count fired.
func (s *Sim) RunUntil(t time.Time) int {
	return s.drain(func(time.Time) (time.Time, bool) { return t, true })
}

// Run fires events until none remain, returning the count fired. Callbacks
// may schedule more events; Run continues until the queue drains.
func (s *Sim) Run() int { return s.drain(unbounded) }

// drain is the engine's one loop: it pops the group of events sharing the
// earliest timestamp, commits now to that instant and fires the group in
// exact (timestamp, seq) order, so every callback reads its own firing
// instant from Now. An event a callback schedules at the current instant
// gets a higher seq than the whole group and fires in the next one, where
// a one-event-at-a-time loop would also have put it. deadlineOf computes
// the deadline from now under the initial lock hold — the Advance TOCTOU
// fix — and reports whether the drain is bounded at all.
func (s *Sim) drain(deadlineOf func(time.Time) (time.Time, bool)) int {
	fired := 0
	s.mu.Lock()
	// The group buffer is taken, not shared: a drain nested in a callback
	// finds none and makes its own.
	group := s.group
	s.group = nil
	deadline, bounded := deadlineOf(s.now)
	for {
		group = s.popGroup(group[:0], deadline, bounded)
		if len(group) == 0 {
			break
		}
		s.now = group[0].at
		s.mu.Unlock()
		s.fireGroup(group)
		fired += len(group)
		s.mu.Lock()
		s.recycle(group)
	}
	if bounded && deadline.After(s.now) {
		s.now = deadline
	}
	s.group = group
	s.mu.Unlock()
	return fired
}

// freeCap bounds the free list: enough for the steady state's recurring
// events, small enough that a bulk-loaded timeline is not retained after
// it fires.
const freeCap = 256

// recycle zeroes the fired group's events, so their callbacks can be
// collected, and keeps them for push while the free list has room. The
// caller holds s.mu.
func (s *Sim) recycle(group []*event) {
	for i, ev := range group {
		if len(s.free) < freeCap {
			*ev = event{}
			s.free = append(s.free, ev)
		}
		group[i] = nil
	}
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
		ev.fn()
	}
	s.fired.Add(int64(len(group)))
}

// Stats are the engine's lifetime counters. A round is one popped
// same-instant group; coalesced counts events that shared theirs with at
// least one other.
type Stats struct {
	Scheduled int64 // events pushed via After/At/ScheduleBatch
	Fired     int64 // callbacks executed
	Coalesced int64 // events fired in a same-instant group of width > 1
	Rounds    int64 // same-instant groups fired
	MaxBatch  int   // widest same-instant group fired
	Pending   int   // scheduled but not yet fired, right now

	// Windows, SpecFired, Conflicts and Barriers always read 0: the drain
	// has no lookahead window. They remain only because bench/campaign.go
	// reads them, and go with those reads in the benchmark PR of ROADMAP
	// item 1(d).
	Windows, SpecFired, Conflicts, Barriers int64
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
	}
}

// Ticker invokes fn every period on clk until stop is called. It is the
// simulation-friendly replacement for time.Ticker: under a Sim clock the
// callback fires exactly once per simulated period. A firing re-arms the
// ticker in place, after fn returns, with the one callback NewTicker
// bound — so a Sim ticker allocates nothing per period.
type Ticker struct {
	clk    Clock
	period time.Duration
	fn     func(now time.Time)
	tick   func() // fire, bound once

	mu      sync.Mutex
	stopped bool
}

// NewTicker starts a ticker on clk. The first firing is one period from now.
func NewTicker(clk Clock, period time.Duration, fn func(now time.Time)) *Ticker {
	t := &Ticker{clk: clk, period: period, fn: fn}
	t.tick = t.fire
	clk.After(period, t.tick)
	return t
}

// fire is one period's event: fn at the firing instant, then the next
// period's event.
func (t *Ticker) fire() {
	t.mu.Lock()
	stopped := t.stopped
	t.mu.Unlock()
	if stopped {
		return
	}
	t.fn(t.clk.Now())
	t.clk.After(t.period, t.tick)
}

// Stop prevents future firings. A firing already dispatched may still run.
func (t *Ticker) Stop() {
	t.mu.Lock()
	t.stopped = true
	t.mu.Unlock()
}
