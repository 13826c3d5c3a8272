package simclock

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

func TestSimNowStartsAtEpoch(t *testing.T) {
	s := NewSim(epoch)
	if !s.Now().Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", s.Now(), epoch)
	}
}

func TestAdvanceFiresInOrder(t *testing.T) {
	s := NewSim(epoch)
	var got []int
	s.After(3*time.Second, func() { got = append(got, 3) })
	s.After(1*time.Second, func() { got = append(got, 1) })
	s.After(2*time.Second, func() { got = append(got, 2) })
	n := s.Advance(5 * time.Second)
	if n != 3 {
		t.Fatalf("Advance fired %d, want 3", n)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order %v, want [1 2 3]", got)
		}
	}
	if want := epoch.Add(5 * time.Second); !s.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", s.Now(), want)
	}
}

func TestAdvanceStopsAtDeadline(t *testing.T) {
	s := NewSim(epoch)
	fired := false
	s.After(10*time.Second, func() { fired = true })
	s.Advance(5 * time.Second)
	if fired {
		t.Fatal("event beyond deadline fired")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	s.Advance(5 * time.Second)
	if !fired {
		t.Fatal("event at deadline did not fire")
	}
}

func TestEqualTimestampsFireInScheduleOrder(t *testing.T) {
	s := NewSim(epoch)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { got = append(got, i) })
	}
	s.Advance(time.Second)
	for i := range got {
		if got[i] != i {
			t.Fatalf("schedule order broken: %v", got)
		}
	}
}

func TestCallbackMaySchedule(t *testing.T) {
	s := NewSim(epoch)
	var times []time.Time
	var rec func()
	rec = func() {
		times = append(times, s.Now())
		if len(times) < 4 {
			s.After(time.Minute, rec)
		}
	}
	s.After(time.Minute, rec)
	s.Run()
	if len(times) != 4 {
		t.Fatalf("got %d firings, want 4", len(times))
	}
	for i, ts := range times {
		want := epoch.Add(time.Duration(i+1) * time.Minute)
		if !ts.Equal(want) {
			t.Fatalf("firing %d at %v, want %v", i, ts, want)
		}
	}
}

func TestAtClampsToPast(t *testing.T) {
	s := NewSim(epoch)
	fired := false
	s.At(epoch.Add(-time.Hour), func() { fired = true })
	s.Advance(0)
	if !fired {
		t.Fatal("past-scheduled event should fire immediately")
	}
}

func TestNextAt(t *testing.T) {
	s := NewSim(epoch)
	if _, ok := s.NextAt(); ok {
		t.Fatal("NextAt on empty queue should report !ok")
	}
	s.After(42*time.Second, func() {})
	at, ok := s.NextAt()
	if !ok || !at.Equal(epoch.Add(42*time.Second)) {
		t.Fatalf("NextAt = %v, %v", at, ok)
	}
}

func TestRunUntil(t *testing.T) {
	s := NewSim(epoch)
	count := 0
	for i := 1; i <= 10; i++ {
		s.After(time.Duration(i)*time.Hour, func() { count++ })
	}
	s.RunUntil(epoch.Add(4 * time.Hour))
	if count != 4 {
		t.Fatalf("fired %d, want 4", count)
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	s := NewSim(epoch)
	var ticks []time.Time
	tk := NewTicker(s, 10*time.Minute, func(now time.Time) { ticks = append(ticks, now) })
	s.Advance(35 * time.Minute)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(ticks))
	}
	tk.Stop()
	s.Advance(time.Hour)
	if len(ticks) != 3 {
		t.Fatalf("ticker fired after Stop: %d", len(ticks))
	}
}

// TestTickerSteadyStateAllocatesNothing: a ticker re-arms in place with
// the callback it bound once, and the Sim reuses the event it fired, so
// once warm a period's Advance allocates nothing. Warm means one lap of
// the wheel, whose slots each grow their backing array on first use.
func TestTickerSteadyStateAllocatesNothing(t *testing.T) {
	s := NewSim(epoch)
	ticks := 0
	NewTicker(s, wheelTick, func(time.Time) { ticks++ })
	s.Advance(wheelSlots * wheelTick)
	if allocs := testing.AllocsPerRun(100, func() { s.Advance(wheelTick) }); allocs != 0 {
		t.Fatalf("Advance(period) allocates %v with one ticker, want 0", allocs)
	}
	if want := wheelSlots + 101; ticks != want {
		t.Fatalf("%d ticks, want %d", ticks, want)
	}
}

// TestAfterChainAllocatesNothingPerFire: a callback that schedules its
// successor with After costs the clock nothing per fire once warm — the
// chain's own closure is bound once, and each fired event is recycled
// into the next push.
func TestAfterChainAllocatesNothingPerFire(t *testing.T) {
	s := NewSim(epoch)
	fires := 0
	var step func()
	step = func() {
		fires++
		s.After(time.Second, step)
	}
	s.After(time.Second, step)
	s.Advance(10 * time.Second)
	if allocs := testing.AllocsPerRun(50, func() { s.Advance(10 * time.Second) }); allocs != 0 {
		t.Fatalf("ten chained fires allocate %v, want 0", allocs)
	}
	if fires != 520 { // AllocsPerRun adds one warm-up run
		t.Fatalf("%d fires, want 520", fires)
	}
}

func TestConcurrentScheduling(t *testing.T) {
	s := NewSim(epoch)
	var wg sync.WaitGroup
	var mu sync.Mutex
	count := 0
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.After(time.Duration(i)*time.Millisecond, func() {
				mu.Lock()
				count++
				mu.Unlock()
			})
		}(i)
	}
	wg.Wait()
	s.Run()
	if count != 50 {
		t.Fatalf("fired %d, want 50", count)
	}
}

func TestRealClockAfter(t *testing.T) {
	done := make(chan struct{})
	Real{}.After(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Real.After never fired")
	}
}

func TestRealClockAt(t *testing.T) {
	done := make(chan struct{})
	Real{}.At(time.Now().Add(-time.Second), func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Real.At in the past never fired")
	}
}

func BenchmarkSimScheduleAndRun(b *testing.B) {
	s := NewSim(epoch)
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Millisecond, func() {})
	}
	b.ResetTimer()
	s.Run()
}
