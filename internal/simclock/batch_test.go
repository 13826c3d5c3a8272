package simclock

import (
	"fmt"
	"reflect"
	"runtime"
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
// current instant included — what makes Run, RunUntil and Advance one
// loop that pops same-instant groups instead of single events.
func TestBatchedMatchesSerialExactly(t *testing.T) {
	serial := drainRecorded(t, oneAtATime)
	if got := drainRecorded(t, func(s *Sim) int { return s.drain(unbounded) }); !reflect.DeepEqual(serial, got) {
		t.Fatal("drain diverges from one-event-at-a-time order")
	}
	if got := drainRecorded(t, func(s *Sim) int { return s.Run() }); !reflect.DeepEqual(serial, got) {
		t.Fatal("Run diverges from one-event-at-a-time order")
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
		s.Run()
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
	if n := s.Run(); n != len(offsets) {
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
	if n := s.Run(); n != 2000 {
		t.Fatalf("fired %d, want 2000", n)
	}
	if want := epoch.Add(1999 * 17 * time.Minute); !s.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", s.Now(), want)
	}
}

// TestStatsCounters: the engine books scheduled/fired symmetrically and
// every drain tracks rounds and coalescing width — Run included.
func TestStatsCounters(t *testing.T) {
	s := NewSim(epoch)
	for i := 0; i < 12; i++ {
		s.After(time.Minute, func() {})
	}
	s.After(2*time.Minute, func() {})
	s.drain(unbounded)
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
	s.Run()
	if st := s.Stats(); st.Rounds != 3 || st.MaxBatch != 12 || st.Coalesced != 15 {
		t.Fatalf("stats after Run: %+v", st)
	}
}

// TestBatchedRaceHammer drives concurrent After/ScheduleBatch/At/Now/Pending
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
					s.ScheduleBatch([]Timed{{At: at, Do: Func(bump)}, {At: at.Add(wheelSpan), Do: Func(bump)}})
				case 2:
					scheduled.Add(1)
					s.At(s.Now().Add(time.Duration(g)*time.Minute), bump)
				default:
					_ = s.Now()
					_ = s.Pending()
					_, _ = s.NextAt()
					_ = s.Stats()
				}
			}
		}(g)
	}

	// Drain in rounds until the hammers finish and the queue is empty.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		s.drain(unbounded)
		select {
		case <-done:
			s.drain(unbounded) // final sweep for late schedulers
			if s.Pending() != 0 {
				s.drain(unbounded)
			}
			if got, want := fired.Load(), scheduled.Load(); got != want {
				t.Fatalf("fired %d of %d scheduled", got, want)
			}
			return
		default:
		}
	}
}

// TestScheduleBatchMatchesElementWise: a bulk insert must be
// indistinguishable from element-by-element At calls — same sequence
// numbering, same delivery order, on the wheel and on the heapify-once
// overflow path alike.
func TestScheduleBatchMatchesElementWise(t *testing.T) {
	entries := func(record func(tag string)) []Timed {
		var out []Timed
		for i := 0; i < 120; i++ {
			i := i
			out = append(out, Timed{
				At: epoch.Add(time.Duration(i%12) * time.Minute),
				Do: Func(func() { record(fmt.Sprintf("bulk-%d", i)) }),
			})
		}
		// A far-future slab that lands on the overflow heap — large
		// enough to take the heapify-once path.
		for i := 0; i < 100; i++ {
			i := i
			out = append(out, Timed{
				At: epoch.Add(wheelSpan + time.Duration(i%40)*time.Hour),
				Do: Func(func() { record(fmt.Sprintf("far-%d", i)) }),
			})
		}
		return out
	}
	run := func(bulk bool) []string {
		s := NewSim(epoch)
		var log []string
		es := entries(func(tag string) {
			log = append(log, s.Now().Format(time.RFC3339)+"|"+tag)
		})
		if bulk {
			s.ScheduleBatch(es)
		} else {
			for _, e := range es {
				s.Schedule(e.At, e.Do)
			}
		}
		s.Run()
		return log
	}
	if got, want := run(true), run(false); !reflect.DeepEqual(got, want) {
		t.Fatal("ScheduleBatch delivery order diverges from element-wise scheduling")
	}
}

// TestScheduleBatchPastClampsAndCounts: entries at or before now clamp
// to now (firing on the next dispatch), and the scheduled counter sees
// every entry.
func TestScheduleBatchPastClampsAndCounts(t *testing.T) {
	s := NewSim(epoch)
	var fired []time.Time
	bump := Func(func() { fired = append(fired, s.Now()) })
	s.ScheduleBatch([]Timed{
		{At: epoch.Add(-time.Hour), Do: bump},
		{At: epoch, Do: bump},
		{At: epoch.Add(time.Minute), Do: bump},
	})
	if got := s.Stats().Scheduled; got != 3 {
		t.Fatalf("Scheduled = %d, want 3", got)
	}
	if s.Run() != 3 || len(fired) != 3 {
		t.Fatalf("fired %d of 3", len(fired))
	}
	if !fired[0].Equal(epoch) || !fired[1].Equal(epoch) {
		t.Fatalf("past entries fired at %v, want %v", fired[:2], epoch)
	}
	// Empty batches are no-ops.
	s.ScheduleBatch(nil)
	if s.Pending() != 0 {
		t.Fatal("empty batch scheduled something")
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
		if fired := s.Run(); fired != n {
			t.Fatalf("fired %d, want %d", fired, n)
		}
	}
	// Every run lands on the next tick, so grow each slot's backing array
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

// scheduleTargets schedules one fresh target per instant in one batch and
// returns only weak pointers to them: the entries slice dies with this
// frame, so after the drain the clock is the one thing that could still
// hold a target.
func scheduleTargets(s *Sim, ats []time.Time, fired *int) []weak.Pointer[target] {
	entries := make([]Timed, len(ats))
	weaks := make([]weak.Pointer[target], len(ats))
	for i, at := range ats {
		tg := &target{fired: fired}
		entries[i] = Timed{At: at, Do: tg}
		weaks[i] = weak.Make(tg)
	}
	s.ScheduleBatch(entries)
	return weaks
}

// TestFiredActionsCollectable: once a bulk timeline — wheel events and a
// heapified far-future slab, with same-instant groups among both — has
// fired, the clock references none of its actions, so a world's compiled
// timeline is collectable behind the drain. The wheel slots, the overflow
// heap's vacated tail and the drain's reused group buffer are all zeroed
// as events leave them.
func TestFiredActionsCollectable(t *testing.T) {
	s := NewSim(epoch)
	var ats []time.Time
	for i := 0; i < 600; i++ { // inside the wheel, three per instant
		ats = append(ats, epoch.Add(time.Duration(i/3)*time.Minute))
	}
	for i := 0; i < 2000; i++ { // far slab, two per instant
		ats = append(ats, epoch.Add(wheelSpan+time.Duration(i/2)*37*time.Second))
	}
	fired := 0
	weaks := scheduleTargets(s, ats, &fired)
	if n := s.Run(); n != len(ats) || fired != len(ats) {
		t.Fatalf("Run fired %d (%d actions ran), want %d", n, fired, len(ats))
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

// TestScheduleBatchSlabAllocations: a far-future timeline whose actions
// are elements of the caller's slab costs the clock a bounded number of
// allocations — the Sim, one pre-sized overflow heap, a group buffer —
// however many entries it holds. A per-entry event object would add one
// allocation per entry. AllocsPerRun counts the whole process's
// allocations and divides by the runs as integers; over 20 runs the
// runtime's own (a timer heap growing after a test that used real
// timers) round away instead of tipping one size's count over the
// other's.
func TestScheduleBatchSlabAllocations(t *testing.T) {
	measure := func(n int) float64 {
		slab := make([]target, n)
		fired := 0
		entries := make([]Timed, n)
		for i := range entries {
			slab[i].fired = &fired
			entries[i] = Timed{At: epoch.Add(wheelSpan + time.Duration(i)*time.Minute), Do: &slab[i]}
		}
		return testing.AllocsPerRun(20, func() {
			s := NewSim(epoch)
			s.ScheduleBatch(entries)
			if got := s.Run(); got != n {
				t.Fatalf("fired %d, want %d", got, n)
			}
		})
	}
	small, large := measure(1_000), measure(10_000)
	if large > 8 || large != small {
		t.Fatalf("%v allocations for 1 000 entries, %v for 10 000: want the same bounded count", small, large)
	}
}
