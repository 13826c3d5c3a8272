package simclock

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"
)

// timeline is a Run over a slice the test owns. An entry's rank is its
// index as scheduled; ranked sets them.
type timeline []entry

type entry struct {
	at   time.Time
	f    Firer
	rank int
}

func (tl timeline) Len() int           { return len(tl) }
func (tl timeline) At(i int) time.Time { return tl[i].at }
func (tl timeline) Rank(i int) int     { return tl[i].rank }
func (tl timeline) Event(i int) Firer  { return tl[i].f }
func (tl timeline) Swap(i, j int)      { tl[i], tl[j] = tl[j], tl[i] }

// ranked gives every entry its index as its rank and returns tl.
func (tl timeline) ranked() timeline {
	for i := range tl {
		tl[i].rank = i
	}
	return tl
}

// nextAt returns the instant of the earliest pending event; ok is false
// when nothing is pending.
func nextAt(s *Sim) (t time.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev, _ := s.peek()
	if ev == nil {
		return time.Time{}, false
	}
	return ev.at, true
}

// runAll fires events until none remain, callbacks' events included, and
// returns the count fired: a RunUntil to each earliest pending instant in
// turn, which leaves Now at the last firing instant.
func runAll(s *Sim) int {
	fired := 0
	for {
		at, ok := nextAt(s)
		if !ok {
			return fired
		}
		fired += s.RunUntil(at)
	}
}

// fuzzOffset maps a byte to an offset from Now: up to 7.5 h into the
// past and 22 h into the future in 7-minute steps, so equal bytes tie,
// negative ones clamp, and the wheel's horizon lies inside the range.
func fuzzOffset(b byte) time.Duration { return time.Duration(int(b)-64) * 7 * time.Minute }

// drainCase is one fuzz input played against a Sim and against the
// reference model beside it. Every event carries a label, handed out in
// scheduling order on each side, and a spawn byte: when it is non-zero
// the event's firing schedules a child at Now+fuzzOffset(spawn) — with
// Schedule when spawn is odd, as a two-entry run when it is even.
type drainCase struct {
	t     *testing.T
	s     *Sim
	label int
	log   []string
	m     model
}

// fuzzEvent is the Sim side's action of one event.
type fuzzEvent struct {
	c     *drainCase
	label int
	spawn byte
}

func (e *fuzzEvent) Fire() {
	c := e.c
	now := c.s.Now()
	c.log = append(c.log, fmt.Sprintf("%d@%s", e.label, now.Format(time.DateTime)))
	if e.spawn == 0 {
		return
	}
	at := now.Add(fuzzOffset(e.spawn))
	if e.spawn%2 == 1 {
		c.s.Schedule(at, c.event(0))
		return
	}
	c.s.ScheduleRun(timeline{{at, c.event(0), 0}, {now, c.event(0), 1}})
}

func (c *drainCase) event(spawn byte) *fuzzEvent {
	c.label++
	return &fuzzEvent{c: c, label: c.label, spawn: spawn}
}

// model is the reference: a flat list of pending events, each fired by
// scanning for the least (clamped instant, sequence number), where every
// instant is clamped as it is scheduled and a run's entry i takes the
// run's i-th number. A group is every event pending at the earliest
// instant when the drain reaches it.
type model struct {
	now                      time.Time
	seq                      uint64
	label                    int
	pending                  []modelEvent
	log                      []string
	scheduled, fired, rounds int64
	coalesced                int64
	maxBatch                 int
}

type modelEvent struct {
	at    time.Time
	seq   uint64
	label int
	spawn byte
}

func (m *model) schedule(at time.Time, spawn byte) {
	if at.Before(m.now) {
		at = m.now
	}
	m.seq++
	m.label++
	m.scheduled++
	m.pending = append(m.pending, modelEvent{at, m.seq, m.label, spawn})
}

func (m *model) drain(deadline time.Time) {
	for len(m.pending) > 0 {
		first := slices.MinFunc(m.pending, func(a, b modelEvent) int {
			if c := a.at.Compare(b.at); c != 0 {
				return c
			}
			return int(a.seq) - int(b.seq)
		})
		if first.at.After(deadline) {
			break
		}
		var group []modelEvent
		m.pending = slices.DeleteFunc(m.pending, func(e modelEvent) bool {
			if e.at.Equal(first.at) {
				group = append(group, e)
				return true
			}
			return false
		})
		slices.SortFunc(group, func(a, b modelEvent) int { return int(a.seq) - int(b.seq) })
		m.now = first.at
		m.rounds++
		if len(group) > 1 {
			m.coalesced += int64(len(group))
			m.maxBatch = max(m.maxBatch, len(group))
		}
		for _, e := range group {
			m.fired++
			m.log = append(m.log, fmt.Sprintf("%d@%s", e.label, m.now.Format(time.DateTime)))
			if e.spawn == 0 {
				continue
			}
			at := m.now.Add(fuzzOffset(e.spawn))
			if e.spawn%2 == 1 {
				m.schedule(at, 0)
				continue
			}
			m.schedule(at, 0)
			m.schedule(m.now, 0)
		}
	}
	if deadline.After(m.now) {
		m.now = deadline
	}
}

// check holds the Sim's Now, log, Pending and Stats to the model's.
func (c *drainCase) check(step string) {
	c.t.Helper()
	m := &c.m
	if got := c.s.Now(); !got.Equal(m.now) {
		c.t.Fatalf("%s: Now %v, want %v", step, got, m.now)
	}
	if !slices.Equal(c.log, m.log) {
		c.t.Fatalf("%s: fired\n%q\nwant\n%q", step, c.log, m.log)
	}
	want := Stats{Scheduled: m.scheduled, Fired: m.fired, Coalesced: m.coalesced,
		Rounds: m.rounds, MaxBatch: m.maxBatch, Pending: len(m.pending)}
	if got := c.s.Stats(); !reflect.DeepEqual(got, want) {
		c.t.Fatalf("%s: Stats %+v, want %+v", step, got, want)
	}
	if got := c.s.Pending(); got != len(m.pending) {
		c.t.Fatalf("%s: Pending %d, want %d", step, got, len(m.pending))
	}
}

// FuzzRunsDrainInOrder holds the drain, merging runs with the wheel and
// the overflow heap, to the reference model: the same events fire at the
// same instants in the same order and groups, and Now, Pending and every
// Stats counter agree after each step. The input is a list of steps:
// single events scheduled before, between and after runs; runs of up to
// 48 unsorted entries, with ties and instants in the past, longer than
// the slices sort.Sort insertion-sorts; Advance and RunUntil steps,
// deadlines in the past included; and, through spawn bytes, events that
// schedule single events and runs from inside their callbacks.
func FuzzRunsDrainInOrder(f *testing.F) {
	f.Add([]byte{1, 30, 100, 64, 64, 0, 90, 3, 40, 2, 70, 3, 0, 200, 1, 5})
	f.Add([]byte{0, 100, 65, 1, 47, 64, 64, 64, 64, 66, 66, 10, 10, 250, 250, 3, 0, 2, 255, 0, 64, 0})
	f.Add([]byte{1, 3, 64, 66, 64, 0, 64, 0, 2, 60, 1, 4, 10, 0, 9, 0, 64, 0, 64, 0, 3, 120})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		c := &drainCase{t: t, s: NewSim(epoch), m: model{now: epoch}}
		for step := 0; len(data) > 0 && step < 64; step++ {
			switch op := next() % 4; op {
			case 0: // one event
				off, spawn := fuzzOffset(next()), next()
				c.s.Schedule(c.s.Now().Add(off), c.event(spawn))
				c.m.schedule(c.m.now.Add(off), spawn)
			case 1: // a run
				var tl timeline
				for k := 1 + int(next())%48; k > 0; k-- {
					off, spawn := fuzzOffset(next()), next()
					tl = append(tl, entry{c.s.Now().Add(off), c.event(spawn), len(tl)})
					c.m.schedule(c.m.now.Add(off), spawn)
				}
				c.s.ScheduleRun(tl)
			case 2:
				d := time.Duration(next()) * 5 * time.Minute
				c.s.Advance(d)
				c.m.drain(c.m.now.Add(d))
			case 3:
				deadline := c.m.now.Add(fuzzOffset(next()))
				c.s.RunUntil(deadline)
				c.m.drain(deadline)
			}
			c.check(fmt.Sprintf("step %d", step))
		}
		end := epoch.Add(30 * 24 * time.Hour)
		c.s.RunUntil(end)
		c.m.drain(end)
		c.check("final drain")
	})
}
