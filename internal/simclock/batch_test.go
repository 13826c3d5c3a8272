package simclock

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
		s.popAt(idx)
		s.now = ev.at
		s.mu.Unlock()
		ev.fn()
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
					s.ScheduleBatch([]Timed{{At: at, Fn: bump}, {At: at.Add(wheelSpan), Fn: bump}})
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
				Fn: func() { record(fmt.Sprintf("bulk-%d", i)) },
			})
		}
		// A far-future slab that lands on the overflow heap — large
		// enough to take the heapify-once path.
		for i := 0; i < 100; i++ {
			i := i
			out = append(out, Timed{
				At: epoch.Add(wheelSpan + time.Duration(i%40)*time.Hour),
				Fn: func() { record(fmt.Sprintf("far-%d", i)) },
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
				s.At(e.At, e.Fn)
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
	bump := func() { fired = append(fired, s.Now()) }
	s.ScheduleBatch([]Timed{
		{At: epoch.Add(-time.Hour), Fn: bump},
		{At: epoch, Fn: bump},
		{At: epoch.Add(time.Minute), Fn: bump},
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
// anything else once warm: each push reuses an event the previous drain
// recycled, and the drain keeps its group buffer.
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

// TestFreeListBoundedAfterBulkDrain: a drained 10 k-event timeline —
// wheel events and a heapified far-future slab — leaves at most freeCap
// events on the free list, so a world's bulk-loaded timeline is not kept
// alive after it fires, and the events it does keep are zeroed.
func TestFreeListBoundedAfterBulkDrain(t *testing.T) {
	s := NewSim(epoch)
	fn := func() {}
	const n = 10_000
	entries := make([]Timed, n)
	for i := range entries {
		entries[i] = Timed{At: epoch.Add(time.Duration(i) * 37 * time.Second), Fn: fn}
	}
	s.ScheduleBatch(entries)
	if fired := s.Run(); fired != n {
		t.Fatalf("fired %d, want %d", fired, n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.free) != freeCap {
		t.Fatalf("free list holds %d events after a %d-event drain, want %d", len(s.free), n, freeCap)
	}
	for _, ev := range s.free {
		if ev.fn != nil {
			t.Fatal("a recycled event still references its callback")
		}
	}
	for _, ev := range s.group {
		if ev != nil {
			t.Fatal("the group buffer still references a fired event")
		}
	}
}
