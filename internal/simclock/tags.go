// Effect tags: the scheduling side of the lookahead engine (DESIGN.md
// §12). An event scheduled with a tag declares, at schedule time, the
// set of state it may touch when it fires — derived from its closure's
// provenance (the domain it mutates, the nameserver lane it times out
// on). The lookahead drain
// (lookahead.go) uses mask intersection to decide which events from
// *different* timestamps commute and may fire together; untagged events
// remain full ordering barriers, so every pre-existing schedule site is
// lookahead-safe by default.
package simclock

import (
	"container/heap"
	"time"

	"darkdns/internal/dnsname"
)

// EffectTag is a 64-atom effect-set mask. Each bit is one abstract
// state atom; two events commute across timestamps when their masks are
// disjoint. Atoms are derived by hashing a provenance label into one of
// 64 bits, so distinct labels may collide — a collision only creates a
// spurious conflict (events serialize that did not need to), never a
// missed one. The zero mask means "untagged": the event is an ordering
// barrier and the lookahead drain will not speculate past it.
type EffectTag uint64

// DomainTag returns the effect atom for one domain's slice of state:
// its DomainStore shard, its registry ledger entry, its candidate-shard
// entry. Callers pass the canonical name so every engine that touches
// the same domain lands on the same atom.
func DomainTag(domain string) EffectTag {
	return 1 << (dnsname.Hash64(domain) & 63)
}

// LaneTag returns the effect atom for a named engine lane — a
// per-nameserver rate lane ("resolver/127.0.0.1:5353"). Lanes share the same 64-atom space as
// domains; a domain/lane collision is, as above, merely conservative.
func LaneTag(label string) EffectTag {
	return 1 << (dnsname.Hash64(label) & 63)
}

// TaggedTimed is one effect-tagged schedule entry.
//
// The callback is time-explicit: it receives the event's firing instant
// and must derive every timestamp it records or schedules from that
// argument — never from Clock.Now(), which under the lookahead drain
// may still sit at an earlier barrier while the event fires
// speculatively. Follow-up events the callback schedules must carry a
// mask that is a subset of this event's mask (or be untagged, which is
// always safe).
type TaggedTimed struct {
	At  time.Time
	Tag EffectTag // static effect mask; 0 defers to TagAt
	// TagAt, when non-nil, resolves the mask at scan time instead of
	// schedule time — for events whose effect set grows after scheduling
	// (a fleet round's watch set). It is called with the Sim lock held
	// and must not block or touch the clock: reading an atomic is the
	// intended shape. A nil TagAt with a zero Tag marks the event
	// untagged (an ordering barrier).
	TagAt func() EffectTag
	// Quiet, when non-zero, is the earliest instant at which this event's
	// callback may spawn an *untagged* follow-up (a registration's future
	// certificate request). The lookahead scan will not select events
	// later than Quiet into the same window, so the spawned barrier is
	// never jumped over.
	Quiet time.Time
	Fn    func(now time.Time)
}

// TagScheduler is the optional Clock extension for effect-tagged
// scheduling. Sim implements it; engines probe for it and fall back to
// untagged Clock.After (always safe) on other clocks.
type TagScheduler interface {
	// ScheduleTagged schedules one tagged event at an absolute instant.
	ScheduleTagged(e TaggedTimed)
	// AfterTagged schedules fn with a static mask once d has elapsed.
	AfterTagged(d time.Duration, tag EffectTag, fn func(now time.Time))
}

// AfterTagged schedules fn on clk with the given effect mask when the
// clock supports tagged scheduling, and falls back to a plain untagged
// After otherwise (the callback then receives clk.Now(), which is the
// firing instant wherever no lookahead runs).
func AfterTagged(clk Clock, d time.Duration, tag EffectTag, fn func(now time.Time)) {
	if ts, ok := clk.(TagScheduler); ok {
		ts.AfterTagged(d, tag, fn)
		return
	}
	clk.After(d, func() { fn(clk.Now()) })
}

// ScheduleTagged implements TagScheduler.
func (s *Sim) ScheduleTagged(e TaggedTimed) {
	s.mu.Lock()
	s.pushEvent(e.At, &event{fnT: e.Fn, tag: e.Tag, tagFn: e.TagAt, quiet: e.Quiet})
	s.mu.Unlock()
}

// AfterTagged implements TagScheduler.
func (s *Sim) AfterTagged(d time.Duration, tag EffectTag, fn func(now time.Time)) {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	s.pushEvent(s.now.Add(d), &event{fnT: fn, tag: tag})
	s.mu.Unlock()
}

// ScheduleBatchTagged schedules every entry under a single lock
// acquisition, assigning sequence numbers in slice order — equivalent to
// calling ScheduleTagged element by element, minus the per-event locking;
// an entry with neither Tag nor TagAt is an untagged barrier, like At.
// Bulk producers like the world builder's commit phase install whole
// compiled timelines through it. When a batch carries a large far-future
// slab (a compiled campaign lands almost entirely beyond the wheel
// horizon), the slab is appended to the overflow queue raw and heapified
// once — an O(heap) rebuild instead of O(batch·log heap) sifts. Firing
// order is identical either way: it depends only on each event's
// (at, seq), never on heap internals.
func (s *Sim) ScheduleBatchTagged(entries []TaggedTimed) {
	if len(entries) == 0 {
		return
	}
	s.mu.Lock()
	far := 0
	for i := range entries {
		at := entries[i].At
		if at.Before(s.now) {
			at = s.now
		}
		if at.Sub(s.now) >= wheelSpan {
			far++
		}
	}
	bulk := far >= 64 && far*4 >= len(s.overflow)
	for i := range entries {
		e := &entries[i]
		at := e.At
		if at.Before(s.now) {
			at = s.now
		}
		ev := &event{fnT: e.Fn, tag: e.Tag, tagFn: e.TagAt, quiet: e.Quiet}
		if bulk && at.Sub(s.now) >= wheelSpan {
			s.seq++
			ev.at, ev.seq = at, s.seq
			s.overflow = append(s.overflow, ev)
			s.scheduled.Add(1)
			continue
		}
		s.pushEvent(at, ev)
	}
	if bulk {
		heap.Init(&s.overflow)
	}
	s.mu.Unlock()
}
