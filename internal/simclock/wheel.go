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
	"slices"
	"time"
)

// Firer is a scheduled event's action. Storing the interface rather than
// a func lets a bulk producer schedule elements of a slab it already
// owns: a pointer converts to a Firer without allocating, where binding
// a method value or a closure per event allocates one.
type Firer interface{ Fire() }

// Func adapts a plain callback to Firer. A func value is pointer-shaped,
// so the conversion allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// event is a scheduled action in the simulated timeline. Events live by
// value in the wheel slots, the overflow heap and the drain's group
// buffer: scheduling one allocates nothing beyond the growth of those
// slices.
type event struct {
	at  time.Time
	seq uint64 // tie-break so equal timestamps fire in schedule order
	f   Firer
}

// compareEvents orders events by (at, seq) — the global firing order.
// Sequence numbers are unique, so no two events compare equal.
func compareEvents(a, b event) int {
	if c := a.at.Compare(b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

func (e *event) less(o *event) bool {
	if c := e.at.Compare(o.at); c != 0 {
		return c < 0
	}
	return e.seq < o.seq
}

// eventHeap is the overflow queue: a binary min-heap of events by
// (at, seq), typed so that pushes and pops move values without boxing
// them into an interface.
type eventHeap []event

// push adds ev and restores the heap order.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event. The vacated tail slot is
// zeroed so the slice's backing array keeps no fired Firer reachable.
func (h *eventHeap) pop() event {
	old := *h
	n := len(old) - 1
	top := old[0]
	old[0] = old[n]
	old[n] = event{}
	*h = old[:n]
	h.down(0)
	return top
}

// init establishes the heap order over arbitrary contents in O(n).
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

func (h eventHeap) down(i int) {
	n := len(h)
	if n == 0 {
		return
	}
	ev := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].less(&h[child]) {
			child = r
		}
		if !h[child].less(&ev) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = ev
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
	evs    []event
	head   int // evs[:head] already fired (entries zeroed for GC)
	sorted bool
}

func (sl *slot) add(ev event) {
	if sl.head == len(sl.evs) {
		sl.evs = sl.evs[:0]
		sl.head = 0
	}
	sl.evs = append(sl.evs, ev)
	sl.sorted = len(sl.evs)-sl.head == 1
}

// min returns the earliest pending event, sorting the tail if dirty. The
// pointer is valid until the slot next changes. The slot must be
// non-empty.
func (sl *slot) min() *event {
	if !sl.sorted {
		slices.SortFunc(sl.evs[sl.head:], compareEvents)
		sl.sorted = true
	}
	return &sl.evs[sl.head]
}

func (sl *slot) empty() bool { return sl.head == len(sl.evs) }

// push stores an event; the caller holds s.mu. Instants in the past
// clamp to now so they fire on the next dispatch.
func (s *Sim) push(at time.Time, f Firer) {
	if at.Before(s.now) {
		at = s.now
	}
	s.seq++
	ev := event{at: at, seq: s.seq, f: f}
	s.scheduled.Add(1)
	if at.Sub(s.now) < wheelSpan {
		idx := slotIndex(at)
		s.wheel[idx].add(ev)
		s.occ[idx>>6] |= 1 << (idx & 63)
		s.wheelLen++
	} else {
		s.overflow.push(ev)
	}
}

// Timed is one entry of a bulk ScheduleBatch insert: Do fires at At.
type Timed struct {
	At time.Time
	Do Firer
}

// ScheduleBatch schedules every entry under a single lock acquisition,
// assigning sequence numbers in slice order — equivalent to calling
// Schedule element by element, minus the per-event locking. Bulk
// producers like the world builder's commit phase install whole compiled
// timelines through it. When a batch carries a large far-future slab (a
// compiled campaign lands almost entirely beyond the wheel horizon), the
// overflow heap grows once to fit it, the slab is appended raw and the
// heap is rebuilt once — O(heap) instead of O(batch·log heap) sifts.
// Firing order is identical either way: it depends only on each event's
// (at, seq), never on heap internals.
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
	if bulk {
		s.overflow = slices.Grow(s.overflow, far)
	}
	for i := range entries {
		e := &entries[i]
		if bulk && e.At.Sub(s.now) >= wheelSpan {
			s.seq++
			s.overflow = append(s.overflow, event{at: e.At, seq: s.seq, f: e.Do})
			s.scheduled.Add(1)
			continue
		}
		s.push(e.At, e.Do)
	}
	if bulk {
		s.overflow.init()
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
// with the wheel slot it lives in (-1 = overflow heap). The pointer is
// valid until the next push or pop.
func (s *Sim) peek() (*event, int) {
	wev, idx := s.wheelMin()
	var hev *event
	if len(s.overflow) > 0 {
		hev = &s.overflow[0]
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

// popAt removes the event peek reported at idx, zeroing the slot it
// leaves so no fired Firer stays reachable from the queue.
func (s *Sim) popAt(idx int) event {
	if idx < 0 {
		return s.overflow.pop()
	}
	sl := &s.wheel[idx]
	ev := *sl.min()
	sl.evs[sl.head] = event{}
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
func (s *Sim) popGroup(buf []event, deadline time.Time, bounded bool) []event {
	first, idx := s.peek()
	if first == nil || (bounded && first.at.After(deadline)) {
		return buf
	}
	at := first.at
	for ev := first; ev != nil && ev.at.Equal(at); ev, idx = s.peek() {
		buf = append(buf, s.popAt(idx))
	}
	return buf
}
