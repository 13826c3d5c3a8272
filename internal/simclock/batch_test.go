package simclock

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"
)

// buildTimeline schedules a deterministic mixed workload on s:
// wheel-range and overflow-range timestamps, heavy timestamp collisions,
// and callbacks that schedule further events.
func buildTimeline(s *Sim, record func(tag string)) {
	for i := 0; i < 400; i++ {
		i := i
		// 20 distinct instants → 20-way collisions, inside the wheel.
		s.After(time.Duration(i%20)*time.Minute, func() { record(fmt.Sprintf("ser-%d", i)) })
	}
	for i := 0; i < 50; i++ {
		i := i
		// Overflow heap: beyond the wheel horizon.
		s.After(wheelSpan+time.Duration(i)*time.Hour, func() { record(fmt.Sprintf("far-%d", i)) })
	}
	// Cascades: firing schedules more work, some landing on occupied
	// instants, some zero-delay.
	for i := 0; i < 20; i++ {
		i := i
		s.After(time.Duration(i)*time.Minute, func() {
			record(fmt.Sprintf("cascade-%d", i))
			s.After(0, func() { record(fmt.Sprintf("resched-%d", i)) })
			s.After(5*time.Minute, func() { record(fmt.Sprintf("relater-%d", i)) })
		})
	}
}

// drainRecorded runs one timeline through the given drain and returns
// its "instant|tag" log in delivery order.
func drainRecorded(t *testing.T, drain func(s *Sim) int) []string {
	t.Helper()
	s := NewSim(epoch)
	var log []string
	buildTimeline(s, func(tag string) {
		log = append(log, s.Now().Format(time.RFC3339)+"|"+tag)
	})
	if n := drain(s); n != len(log) {
		t.Fatalf("drain fired %d, log has %d", n, len(log))
	}
	return log
}

// oneAtATime is the reference the drain is held to: pop the single
// earliest event in (timestamp, seq) order, commit its instant, fire it,
// repeat — the loop the engine ran before it popped same-instant groups.
func oneAtATime(s *Sim) int {
	fired := 0
	for {
		s.mu.Lock()
		ev, idx := s.peek()
		if ev == nil {
			s.mu.Unlock()
			return fired
		}
		popped := s.popAt(idx)
		s.now = popped.at
		s.mu.Unlock()
		popped.f.Fire()
		fired++
	}
}

// TestBatchedMatchesSerialExactly: the group drain must reproduce the
// one-event-at-a-time order byte for byte, cascades that schedule at the
// current instant included — what makes RunUntil and Advance one loop
// that pops same-instant groups instead of single events.
func TestBatchedMatchesSerialExactly(t *testing.T) {
	serial := drainRecorded(t, oneAtATime)
	if got := drainRecorded(t, func(s *Sim) int { return s.RunUntil(epoch.Add(365 * 24 * time.Hour)) }); !reflect.DeepEqual(serial, got) {
		t.Fatal("one drain diverges from one-event-at-a-time order")
	}
	if got := drainRecorded(t, runAll); !reflect.DeepEqual(serial, got) {
		t.Fatal("a drain per instant diverges from one-event-at-a-time order")
	}
}

// TestAdvanceDeadlineSingleCriticalSection: the Advance deadline derives
// from now inside the drain itself, so an event that advances a second
// clock reference or a concurrent scheduler cannot shift it. Guarded by
// firing an event exactly at the deadline boundary scheduled from
// another goroutine racing Advance's entry.
func TestAdvanceDeadlineSingleCriticalSection(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		s := NewSim(epoch)
		var fired atomic.Int32
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.After(time.Second, func() { fired.Add(1) })
		}()
		n := s.Advance(time.Second)
		wg.Wait()
		// Whatever the interleaving, the deadline is epoch+1s: if the
		// racing After landed before the drain began it fired, else it
		// is still pending — but it can never be lost or double-fired.
		total := int(fired.Load()) + s.Pending()
		if total != 1 || n != int(fired.Load()) {
			t.Fatalf("trial %d: fired=%d pending=%d n=%d", trial, fired.Load(), s.Pending(), n)
		}
		runAll(s)
		if fired.Load() != 1 {
			t.Fatalf("trial %d: event lost", trial)
		}
	}
}

// TestWheelOverflowBoundary: events straddling the wheel horizon land in
// both structures and still fire in global timestamp order.
func TestWheelOverflowBoundary(t *testing.T) {
	s := NewSim(epoch)
	var got []time.Duration
	offsets := []time.Duration{
		0, time.Nanosecond, wheelTick - 1, wheelTick,
		wheelSpan - time.Nanosecond, wheelSpan, wheelSpan + time.Nanosecond,
		wheelSpan + 24*time.Hour, 2 * wheelSpan, 90 * 24 * time.Hour,
	}
	// Schedule in reverse to defeat schedule-order accidents.
	for i := len(offsets) - 1; i >= 0; i-- {
		d := offsets[i]
		s.After(d, func() { got = append(got, d) })
	}
	if n := runAll(s); n != len(offsets) {
		t.Fatalf("fired %d, want %d", n, len(offsets))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	if !s.Now().Equal(epoch.Add(offsets[len(offsets)-1])) {
		t.Fatalf("Now() = %v", s.Now())
	}
}

// TestWheelWrap: the ring must stay correct when simulated time crosses
// the wheel span many times with events continually rescheduling.
func TestWheelWrap(t *testing.T) {
	s := NewSim(epoch)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 2000 {
			s.After(17*time.Minute, tick) // co-prime with the tick width
		}
	}
	s.After(0, tick)
	if n := runAll(s); n != 2000 {
		t.Fatalf("fired %d, want 2000", n)
	}
	if want := epoch.Add(1999 * 17 * time.Minute); !s.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", s.Now(), want)
	}
}

// TestStatsCounters: the engine books scheduled/fired symmetrically and
// every drain tracks rounds and coalescing width.
func TestStatsCounters(t *testing.T) {
	s := NewSim(epoch)
	for i := 0; i < 12; i++ {
		s.After(time.Minute, func() {})
	}
	s.After(2*time.Minute, func() {})
	runAll(s)
	st := s.Stats()
	if st.Scheduled != 13 || st.Fired != 13 || st.Pending != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Rounds != 2 || st.MaxBatch != 12 || st.Coalesced != 12 {
		t.Fatalf("batch stats: %+v", st)
	}
	for i := 0; i < 3; i++ {
		s.After(time.Minute, func() {})
	}
	s.Advance(time.Minute)
	if st := s.Stats(); st.Rounds != 3 || st.MaxBatch != 12 || st.Coalesced != 15 {
		t.Fatalf("stats after Advance: %+v", st)
	}
}

// TestBatchedRaceHammer drives concurrent After/ScheduleRun/At/Now/Pending
// callers against a running drain — the -race guard for the engine's
// locking. Every scheduled event must fire exactly once.
func TestBatchedRaceHammer(t *testing.T) {
	s := NewSim(epoch)
	var fired atomic.Int64
	var scheduled atomic.Int64
	bump := func() { fired.Add(1) }

	// Seed work so the drain has something to chew while hammers run.
	for i := 0; i < 500; i++ {
		scheduled.Add(1)
		s.After(time.Duration(i%50)*time.Second, bump)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				switch i % 4 {
				case 0:
					scheduled.Add(1)
					s.After(time.Duration(i%90)*time.Second, bump)
				case 1:
					scheduled.Add(2)
					at := s.Now().Add(time.Duration(i%90) * time.Second)
					s.ScheduleRun(timeline{{at.Add(wheelSpan), Func(bump), 0}, {at, Func(bump), 1}})
				case 2:
					scheduled.Add(1)
					s.At(s.Now().Add(time.Duration(g)*time.Minute), bump)
				default:
					_ = s.Now()
					_ = s.Pending()
					_, _ = nextAt(s)
					_ = s.Stats()
				}
			}
		}(g)
	}

	// Drain in rounds until the hammers finish and the queue is empty.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		runAll(s)
		select {
		case <-done:
			runAll(s) // final sweep for late schedulers
			if s.Pending() != 0 {
				runAll(s)
			}
			if got, want := fired.Load(), scheduled.Load(); got != want {
				t.Fatalf("fired %d of %d scheduled", got, want)
			}
			return
		default:
		}
	}
}

// TestRunMatchesElementWise: a run must be indistinguishable from
// element-by-element Schedule calls in index order — same sequence
// numbering, same delivery order — though its entries come unsorted,
// tie with each other and with events scheduled before and after it, and
// reach past the wheel's horizon.
func TestRunMatchesElementWise(t *testing.T) {
	entries := func(record func(tag string)) timeline {
		var out timeline
		for i := 0; i < 120; i++ {
			i := i
			out = append(out, entry{
				at: epoch.Add(time.Duration(i%12) * time.Minute),
				f:  Func(func() { record(fmt.Sprintf("near-%d", i)) }),
			})
		}
		for i := 0; i < 100; i++ {
			i := i
			out = append(out, entry{
				at: epoch.Add(wheelSpan + time.Duration(i%40)*time.Hour),
				f:  Func(func() { record(fmt.Sprintf("far-%d", i)) }),
			})
		}
		return out
	}
	run := func(asRun bool) []string {
		s := NewSim(epoch)
		var log []string
		record := func(tag string) { log = append(log, s.Now().Format(time.RFC3339)+"|"+tag) }
		around := func(tag string) {
			s.At(epoch.Add(3*time.Minute), func() { record(tag + "-near") })
			s.At(epoch.Add(wheelSpan+5*time.Hour), func() { record(tag + "-far") })
		}
		around("before")
		es := entries(record)
		if asRun {
			s.ScheduleRun(es.ranked())
		} else {
			for _, e := range es {
				s.Schedule(e.at, e.f)
			}
		}
		around("after")
		runAll(s)
		return log
	}
	if got, want := run(true), run(false); !reflect.DeepEqual(got, want) {
		t.Fatal("a run's delivery order diverges from element-wise scheduling")
	}
}

// TestRunPastClampsAndCounts: entries before the Now of ScheduleRun
// clamp to it (firing on the next dispatch, in index order), even when
// the first drain reads the run later, and the scheduled counter and
// Pending see every entry.
func TestRunPastClampsAndCounts(t *testing.T) {
	s := NewSim(epoch)
	var fired []string
	at := func(tag string) Firer {
		return Func(func() { fired = append(fired, s.Now().Format(time.TimeOnly)+"|"+tag) })
	}
	s.ScheduleRun(timeline{
		{epoch.Add(time.Minute), at("later"), 0},
		{epoch.Add(-time.Hour), at("past"), 1},
		{epoch, at("now"), 2},
		{epoch.Add(-2 * time.Hour), at("earlier past"), 3},
	})
	if st := s.Stats(); st.Scheduled != 4 || st.Pending != 4 || s.Pending() != 4 {
		t.Fatalf("stats before the drain: %+v, Pending %d", st, s.Pending())
	}
	if n := runAll(s); n != 4 {
		t.Fatalf("fired %d of 4", n)
	}
	want := []string{"00:00:00|past", "00:00:00|now", "00:00:00|earlier past", "00:01:00|later"}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %q, want %q", fired, want)
	}
	if st := s.Stats(); st.Fired != 4 || st.Pending != 0 {
		t.Fatalf("stats after the drain: %+v", st)
	}
	// Empty runs are no-ops.
	s.ScheduleRun(timeline(nil))
	if s.Pending() != 0 || len(s.runs) != 0 {
		t.Fatal("an empty run scheduled something")
	}
}

// TestDirtySlotSortDoesNotAllocate: 64 events pushed out of order into
// one wheel tick make its slot dirty, and draining them sorts it. The
// sort must allocate nothing (sort.Slice used to add a swapper and a
// closure per dirty sort, 11 % of a campaign's mallocs), and neither does
// anything else once warm: events are values in the slot's backing array,
// which every lap of the ring reuses, and the drain keeps its group
// buffer.
func TestDirtySlotSortDoesNotAllocate(t *testing.T) {
	s := NewSim(epoch)
	fn := func() {}
	const n = 64
	fill := func() {
		tick := s.Now().Truncate(wheelTick).Add(wheelTick)
		for i := 0; i < n; i++ {
			s.At(tick.Add(time.Duration((i*37)%n)*time.Millisecond), fn)
		}
		if fired := runAll(s); fired != n {
			t.Fatalf("fired %d, want %d", fired, n)
		}
	}
	// Every fill lands on the next tick, so grow each slot's backing array
	// once around the ring before counting.
	for i := 0; i < wheelSlots; i++ {
		fill()
	}
	allocs := testing.AllocsPerRun(20, fill)
	if allocs != 0 {
		t.Fatalf("%v allocations for %d events in one dirty slot, want 0", allocs, n)
	}
}

// target is a scheduled action allocated on its own, so a weak pointer
// can watch whether anything still references it. The pointer field
// keeps it out of the tiny allocator, which packs small pointer-free
// objects together and would tie their lifetimes to their neighbours'.
type target struct{ fired *int }

func (t *target) Fire() { *t.fired++ }

// scheduleTargets schedules one fresh target per instant in one run and
// returns only weak pointers to them: the entries slice dies with this
// frame, so after the drain the clock is the one thing that could still
// hold a target.
func scheduleTargets(s *Sim, ats []time.Time, fired *int) []weak.Pointer[target] {
	entries := make(timeline, len(ats))
	weaks := make([]weak.Pointer[target], len(ats))
	for i, at := range ats {
		tg := &target{fired: fired}
		entries[i] = entry{at, tg, i}
		weaks[i] = weak.Make(tg)
	}
	s.ScheduleRun(entries)
	return weaks
}

// TestFiredActionsCollectable: once a timeline — wheel events and a run
// reaching past the horizon, with same-instant groups among both — has
// fired, the clock references none of its actions, so a world's compiled
// timeline is collectable behind the drain. The wheel slots, the overflow
// heap's vacated tail, the run heap's vacated slot and the drain's reused
// group buffer are all zeroed as events leave them.
func TestFiredActionsCollectable(t *testing.T) {
	s := NewSim(epoch)
	var ats []time.Time
	for i := 0; i < 600; i++ { // inside the wheel, three per instant
		ats = append(ats, epoch.Add(time.Duration(i/3)*time.Minute))
	}
	for i := 0; i < 2000; i++ { // past the horizon, two per instant
		ats = append(ats, epoch.Add(wheelSpan+time.Duration(i/2)*37*time.Second))
	}
	fired := 0
	weaks := scheduleTargets(s, ats[:600], &fired) // a run inside the wheel's reach
	for _, at := range ats[600:] {                 // and single events beside it
		s.Schedule(at, &target{fired: &fired})
	}
	weaks = append(weaks, scheduleTargets(s, ats[600:], &fired)...) // a far run
	if n, want := runAll(s), len(ats)+2000; n != want || fired != want {
		t.Fatalf("fired %d (%d actions ran), want %d", n, fired, want)
	}
	runtime.GC()
	live := 0
	for _, wp := range weaks {
		if wp.Value() != nil {
			live++
		}
	}
	if live > 0 {
		t.Fatalf("%d of %d fired actions still reachable from the clock", live, len(weaks))
	}
	runtime.KeepAlive(s)
}

// TestRunSlabAllocations: a run whose actions are elements of the
// caller's slab costs the clock a bounded number of allocations — the
// Sim, its run list, the run's interface value and a group buffer —
// however many entries it holds, the sort included: the entries are
// reversed before every drain, so each sort does the whole job. A
// per-entry event would add one allocation per entry. AllocsPerRun
// counts the whole process's allocations and divides by the runs as
// integers; over 20 runs the runtime's own (a timer heap growing after a
// test that used real timers) round away instead of tipping one size's
// count over the other's.
func TestRunSlabAllocations(t *testing.T) {
	measure := func(n int) float64 {
		slab := make([]target, n)
		fired := 0
		entries := make(timeline, n)
		for i := range entries {
			slab[i].fired = &fired
			entries[i] = entry{epoch.Add(wheelSpan + time.Duration(i)*time.Minute), &slab[i], 0}
		}
		return testing.AllocsPerRun(20, func() {
			slices.Reverse(entries)
			s := NewSim(epoch)
			s.ScheduleRun(entries.ranked())
			if got := runAll(s); got != n {
				t.Fatalf("fired %d, want %d", got, n)
			}
		})
	}
	small, large := measure(1_000), measure(10_000)
	if large > 8 || large > small {
		t.Fatalf("%v allocations for 1 000 entries, %v for 10 000: want at most as many, and at most 8", small, large)
	}
}
