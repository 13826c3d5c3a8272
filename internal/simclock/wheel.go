// Timer-wheel event storage for Sim.
//
// The simulated timeline is a calendar queue: near-future events — the
// dominant class once the fleet coalesces probe rounds and the pipeline
// arms one RDAP timer per candidate — land in a ring of coarse tick-width
// buckets where push is O(1), and everything beyond the wheel's horizon
// (worldsim lays out whole 13-week campaigns up front) falls back to a
// binary heap. The firing order contract is unchanged from the plain
// heap: events fire in (timestamp, schedule-order) order, merged across
// both structures.
package simclock

import (
	"cmp"
	"container/heap"
	"slices"
	"time"
)

// event is a scheduled callback in the simulated timeline.
type event struct {
	at  time.Time
	seq uint64 // tie-break so equal timestamps fire in schedule order
	fn  func()
}

// compareEvents orders events by (at, seq) — the global firing order.
// Sequence numbers are unique, so no two events compare equal.
func compareEvents(a, b *event) int {
	if c := a.at.Compare(b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

func (e *event) less(o *event) bool { return compareEvents(e, o) < 0 }

// eventHeap is the overflow queue ordering events by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].less(h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return
}

// Wheel geometry. Slots bucket events by absolute tick index, so an
// event's slot is a mask away; wheelSpan is the scheduling horizon —
// pushes at or beyond it overflow to the heap. The one-tick margin keeps
// every slot's occupancy unambiguous: two wheel events sharing a slot
// always share the same absolute tick.
const (
	wheelSlots = 256
	slotMask   = wheelSlots - 1
	wheelTick  = time.Minute
	wheelSpan  = wheelTick * (wheelSlots - 1)
)

// slotIndex maps an instant to its wheel bucket.
func slotIndex(t time.Time) int {
	return int(uint64(t.UnixNano())/uint64(wheelTick)) & slotMask
}

// slot is one wheel bucket: events within one tick-width window, sorted
// lazily — a push appends, the first pop of a dirty slot sorts the
// pending tail once, and subsequent pops advance head for free.
type slot struct {
	evs    []*event
	head   int // evs[:head] already fired (entries nil'd for GC)
	sorted bool
}

func (sl *slot) add(ev *event) {
	if sl.head == len(sl.evs) {
		sl.evs = sl.evs[:0]
		sl.head = 0
	}
	sl.evs = append(sl.evs, ev)
	sl.sorted = len(sl.evs)-sl.head == 1
}

// min returns the earliest pending event, sorting the tail if dirty.
// The slot must be non-empty.
func (sl *slot) min() *event {
	if !sl.sorted {
		slices.SortFunc(sl.evs[sl.head:], compareEvents)
		sl.sorted = true
	}
	return sl.evs[sl.head]
}

func (sl *slot) empty() bool { return sl.head == len(sl.evs) }

// push stores an event; the caller holds s.mu. Instants in the past
// clamp to now so they fire on the next dispatch.
func (s *Sim) push(at time.Time, fn func()) {
	if at.Before(s.now) {
		at = s.now
	}
	s.seq++
	ev := &event{at: at, seq: s.seq, fn: fn}
	s.scheduled.Add(1)
	if at.Sub(s.now) < wheelSpan {
		idx := slotIndex(at)
		s.wheel[idx].add(ev)
		s.occ[idx>>6] |= 1 << (idx & 63)
		s.wheelLen++
	} else {
		heap.Push(&s.overflow, ev)
	}
}

// Timed is one entry of a bulk ScheduleBatch insert: Fn fires at At.
type Timed struct {
	At time.Time
	Fn func()
}

// ScheduleBatch schedules every entry under a single lock acquisition,
// assigning sequence numbers in slice order — equivalent to calling At
// element by element, minus the per-event locking. Bulk producers like
// the world builder's commit phase install whole compiled timelines
// through it. When a batch carries a large far-future slab (a compiled
// campaign lands almost entirely beyond the wheel horizon), the slab is
// appended to the overflow queue raw and heapified once — an O(heap)
// rebuild instead of O(batch·log heap) sifts. Firing order is identical
// either way: it depends only on each event's (at, seq), never on heap
// internals.
func (s *Sim) ScheduleBatch(entries []Timed) {
	if len(entries) == 0 {
		return
	}
	s.mu.Lock()
	far := 0
	for i := range entries {
		if entries[i].At.Sub(s.now) >= wheelSpan {
			far++
		}
	}
	bulk := far >= 64 && far*4 >= len(s.overflow)
	for i := range entries {
		e := &entries[i]
		if bulk && e.At.Sub(s.now) >= wheelSpan {
			s.seq++
			s.overflow = append(s.overflow, &event{at: e.At, seq: s.seq, fn: e.Fn})
			s.scheduled.Add(1)
			continue
		}
		s.push(e.At, e.Fn)
	}
	if bulk {
		heap.Init(&s.overflow)
	}
	s.mu.Unlock()
}

// wheelMin returns the earliest wheel event and its slot without
// removing it, or (nil, -1) when the wheel is empty. Every pending event
// is at or after s.now, so the occupancy scan starts at now's slot and
// walks the ring once, skipping empty 64-slot words.
func (s *Sim) wheelMin() (*event, int) {
	if s.wheelLen == 0 {
		return nil, -1
	}
	start := slotIndex(s.now)
	for off := 0; off < wheelSlots; {
		idx := (start + off) & slotMask
		if idx&63 == 0 && off+64 <= wheelSlots && s.occ[idx>>6] == 0 {
			off += 64
			continue
		}
		if s.occ[idx>>6]&(1<<(idx&63)) != 0 {
			return s.wheel[idx].min(), idx
		}
		off++
	}
	return nil, -1 // unreachable while wheelLen > 0
}

// peek returns the earliest pending event across wheel and overflow,
// with the wheel slot it lives in (-1 = overflow heap).
func (s *Sim) peek() (*event, int) {
	wev, idx := s.wheelMin()
	var hev *event
	if len(s.overflow) > 0 {
		hev = s.overflow[0]
	}
	switch {
	case wev == nil:
		return hev, -1
	case hev == nil || wev.less(hev):
		return wev, idx
	default:
		return hev, -1
	}
}

// popAt removes the event peek reported at idx.
func (s *Sim) popAt(idx int) *event {
	if idx < 0 {
		return heap.Pop(&s.overflow).(*event)
	}
	sl := &s.wheel[idx]
	ev := sl.min()
	sl.evs[sl.head] = nil
	sl.head++
	if sl.empty() {
		sl.evs = sl.evs[:0]
		sl.head = 0
		s.occ[idx>>6] &^= 1 << (idx & 63)
	}
	s.wheelLen--
	return ev
}

// popGroup removes every due event sharing the earliest timestamp,
// appending them to buf in schedule order. It returns buf unchanged when
// nothing is pending, or nothing is due when bounded by deadline.
func (s *Sim) popGroup(buf []*event, deadline time.Time, bounded bool) []*event {
	first, idx := s.peek()
	if first == nil || (bounded && first.at.After(deadline)) {
		return buf
	}
	for ev := first; ev != nil && ev.at.Equal(first.at); ev, idx = s.peek() {
		buf = append(buf, s.popAt(idx))
	}
	return buf
}
