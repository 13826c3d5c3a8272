// Event storage for Sim.
//
// The simulated timeline is a calendar queue: near-future events — the
// dominant class once the fleet coalesces probe rounds and the pipeline
// arms one RDAP timer per candidate — land in a ring of coarse tick-width
// buckets where push is O(1), and everything beyond the wheel's horizon
// falls back to a binary heap. A bulk producer's timeline (worldsim lays
// out whole 13-week campaigns up front) goes in neither: it stays in the
// producer's own slab as a run, which the first drain to read it sorts
// in place, and the drain merges the run heads with the wheel and the
// heap. The firing order contract is unchanged from the plain heap:
// events fire in (timestamp, schedule-order) order, merged across all
// three structures.
package simclock

import (
	"cmp"
	"slices"
	"sort"
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

// slotFirst is the capacity of a slot's first array. The wheel carves
// all of them from one block on its first push, so a slot costs no
// allocation until it holds more than slotFirst events at once; then
// append doubles it, and the slot keeps the larger array for every later
// lap of the ring.
const slotFirst = 8

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
		if s.wheel[0].evs == nil {
			s.carveSlots()
		}
		idx := slotIndex(at)
		s.wheel[idx].add(ev)
		s.occ[idx>>6] |= 1 << (idx & 63)
		s.wheelLen++
	} else {
		s.overflow.push(ev)
	}
}

// carveSlots gives every wheel slot its first array, slotFirst events
// of one block.
func (s *Sim) carveSlots() {
	block := make([]event, wheelSlots*slotFirst)
	for i := range s.wheel {
		s.wheel[i].evs = block[i*slotFirst : i*slotFirst : (i+1)*slotFirst]
	}
}

// Run is a timeline its producer keeps in a slab of its own, which the
// clock drains in place: entry i fires Event(i) at At(i). Rank(i) is the
// entry's index when ScheduleRun took the run — 0 to Len()-1, each once
// — and Swap moves it with the entry. The first drain to read the run
// sorts it with Swap by (instant, rank), which is the entries' order
// sorted stably by instant, and then fires it from its head. The
// producer must not touch the run, nor change what At or Rank report,
// until its last entry has fired.
type Run interface {
	Len() int
	At(i int) time.Time
	Rank(i int) int
	Event(i int) Firer
	Swap(i, j int)
}

// run is a scheduled Run as the drain reads it. Entry i, as scheduled,
// holds sequence number base+i, so every entry keeps the (instant, seq)
// that scheduling the entries one by one in index order would give it.
type run struct {
	src   Run
	n     int
	base  uint64
	floor time.Time // Now at ScheduleRun: earlier instants clamp to it, as push clamps
	next  int       // entries before next have fired
	head  event     // entry next, once the run is sorted
}

// at is entry i's instant, clamped.
func (r *run) at(i int) time.Time {
	if at := r.src.At(i); at.After(r.floor) {
		return at
	}
	return r.floor
}

// Len, Less and Swap order the run by clamped instant and rank for
// sort.Sort, which sorts in place and allocates nothing. The ranks are
// distinct, so the order is total and the unstable sort gives the
// stable order; sort.Stable's in-place merges took half again as long.
func (r *run) Len() int { return r.n }
func (r *run) Less(i, j int) bool {
	if c := r.at(i).Compare(r.at(j)); c != 0 {
		return c < 0
	}
	return r.src.Rank(i) < r.src.Rank(j)
}
func (r *run) Swap(i, j int) { r.src.Swap(i, j) }

// load makes entry next the run's head.
func (r *run) load() {
	i := r.next
	r.head = event{at: r.at(i), seq: r.base + uint64(r.src.Rank(i)), f: r.src.Event(i)}
}

// ScheduleRun schedules every entry of r under one lock hold, as calling
// Schedule for each in index order would — the same sequence numbers,
// the same clamping of instants before Now — but copies no entry: the
// clock reads r where it is. Sorting waits for the first drain, so a
// producer that schedules a timeline and never drains it pays no sort.
func (s *Sim) ScheduleRun(r Run) {
	n := r.Len()
	if n == 0 {
		return
	}
	s.mu.Lock()
	s.runs = append(s.runs, run{src: r, n: n, base: s.seq + 1, floor: s.now})
	s.seq += uint64(n)
	s.runLen += n
	s.scheduled.Add(int64(n))
	s.mu.Unlock()
}

// sortRuns sorts the runs scheduled since a drain last read the clock
// and adds them to the run heap, s.runs[:s.sortedRuns].
func (s *Sim) sortRuns() {
	for ; s.sortedRuns < len(s.runs); s.sortedRuns++ {
		r := &s.runs[s.sortedRuns]
		sort.Sort(r)
		r.load()
		s.runUp(s.sortedRuns)
	}
}

// popRun removes the earliest run head. A run that has fired its last
// entry leaves the heap, and the slot it leaves is zeroed, so the clock
// keeps no reference to the producer's slab.
func (s *Sim) popRun() event {
	r := &s.runs[0]
	ev := r.head
	s.runLen--
	if r.next++; r.next < r.n {
		r.load()
	} else {
		last := s.sortedRuns - 1
		s.runs[0] = s.runs[last]
		s.runs = slices.Delete(s.runs, last, last+1)
		s.sortedRuns--
	}
	s.runDown(0)
	return ev
}

// runUp and runDown restore the run heap's order by head event.
func (s *Sim) runUp(i int) {
	h := s.runs
	r := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !r.head.less(&h[parent].head) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = r
}

func (s *Sim) runDown(i int) {
	h := s.runs[:s.sortedRuns]
	n := len(h)
	if n == 0 {
		return
	}
	r := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if c := child + 1; c < n && h[c].head.less(&h[child].head) {
			child = c
		}
		if !h[child].head.less(&r.head) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = r
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

// Where peek found the earliest event, when not in a wheel slot.
const (
	inOverflow = -1
	inRuns     = -2
)

// peek returns the earliest pending event across the wheel, the overflow
// heap and the run heads, with where it lives: a wheel slot, inOverflow
// or inRuns. It first sorts any run no drain has read yet. The pointer
// is valid until the next push or pop.
func (s *Sim) peek() (*event, int) {
	if s.sortedRuns < len(s.runs) {
		s.sortRuns()
	}
	ev, where := s.wheelMin()
	if len(s.overflow) > 0 && (ev == nil || s.overflow[0].less(ev)) {
		ev, where = &s.overflow[0], inOverflow
	}
	if len(s.runs) > 0 && (ev == nil || s.runs[0].head.less(ev)) {
		ev, where = &s.runs[0].head, inRuns
	}
	return ev, where
}

// popAt removes the event peek reported at where, zeroing the slot it
// leaves so no fired Firer stays reachable from the queue.
func (s *Sim) popAt(where int) event {
	switch where {
	case inOverflow:
		return s.overflow.pop()
	case inRuns:
		return s.popRun()
	}
	sl := &s.wheel[where]
	ev := *sl.min()
	sl.evs[sl.head] = event{}
	sl.head++
	if sl.empty() {
		sl.evs = sl.evs[:0]
		sl.head = 0
		s.occ[where>>6] &^= 1 << (where & 63)
	}
	s.wheelLen--
	return ev
}

// popGroup removes every event sharing the earliest timestamp, when that
// is not after deadline, appending them to buf in schedule order. It
// returns buf unchanged when nothing is pending or nothing is due.
func (s *Sim) popGroup(buf []event, deadline time.Time) []event {
	first, where := s.peek()
	if first == nil || first.at.After(deadline) {
		return buf
	}
	at := first.at
	for ev := first; ev != nil && ev.at.Equal(at); ev, where = s.peek() {
		buf = append(buf, s.popAt(where))
	}
	return buf
}
