package main

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks; sorted must be ascending.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// memMark is a runtime.MemStats reading; delta reports what the program
// did between two of them.
type memMark struct{ m runtime.MemStats }

func markMem() *memMark {
	k := &memMark{}
	runtime.ReadMemStats(&k.m)
	return k
}

type memDelta struct {
	mallocs, allocBytes float64
	gcCycles            float64
	gcPause             time.Duration
	heapSysMB           float64
}

func (k *memMark) delta() memDelta {
	now := markMem()
	return memDelta{
		mallocs:    float64(now.m.Mallocs - k.m.Mallocs),
		allocBytes: float64(now.m.TotalAlloc - k.m.TotalAlloc),
		gcCycles:   float64(now.m.NumGC - k.m.NumGC),
		gcPause:    time.Duration(now.m.PauseTotalNs - k.m.PauseTotalNs),
		heapSysMB:  float64(now.m.HeapSys) / (1 << 20),
	}
}

// seam aggregates the calls crossing one interface boundary. Per-call
// seams fire millions of times per run, so a call is folded into a busy-time
// sum and a log2 latency histogram (whose total is the call count) instead
// of a stored span, with one monotonic clock read at each end.
type seam struct {
	epoch time.Time
	busy  atomic.Int64     // summed call durations, ns (exceeds wall time when calls overlap)
	hist  [40]atomic.Int64 // hist[b] counts calls with 2^(b-1) ≤ ns < 2^b
	// cover, when set, also folds the call into the union of intervals
	// during which any call of any seam sharing it was in flight.
	cover *coverage
}

// enter and exit bracket one call. A nil seam is the untraced run.
func (s *seam) enter() int64 {
	if s == nil {
		return 0
	}
	t := int64(time.Since(s.epoch))
	if s.cover != nil {
		s.cover.enter(t)
	}
	return t
}

func (s *seam) exit(start int64) {
	if s == nil {
		return
	}
	end := int64(time.Since(s.epoch))
	s.busy.Add(end - start)
	s.hist[min(bits.Len64(uint64(end-start)), len(s.hist)-1)].Add(1)
	if s.cover != nil {
		s.cover.exit(end)
	}
}

func (s *seam) count() float64 {
	if s == nil {
		return 0
	}
	n := int64(0)
	for i := range s.hist {
		n += s.hist[i].Load()
	}
	return float64(n)
}

func (s *seam) busySeconds() float64 {
	if s == nil {
		return 0
	}
	return time.Duration(s.busy.Load()).Seconds()
}

func (s *seam) nsPerCall() float64 { return ratio(s.busySeconds()*1e9, s.count()) }

// coverage measures the wall time during which at least one bracketed
// call was in flight — the part of a parent span its children cover, which
// is what self time subtracts. Calls may nest and run concurrently; times
// are nanoseconds on the clock of the seams that share it. A call entering
// in the few nanoseconds between another's last-out decrement and its read
// of start can lose that interval; the error only ever undercounts and is
// far below timer resolution over a run.
type coverage struct {
	inflight atomic.Int64
	start    atomic.Int64 // when inflight last left zero
	covered  atomic.Int64
}

func (c *coverage) enter(t int64) {
	if c.inflight.Add(1) == 1 {
		c.start.Store(t)
	}
}

func (c *coverage) exit(t int64) {
	if c.inflight.Add(-1) == 0 {
		if d := t - c.start.Load(); d > 0 {
			c.covered.Add(d)
		}
	}
}

func (c *coverage) seconds() float64 { return time.Duration(c.covered.Load()).Seconds() }
