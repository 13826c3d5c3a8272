// Lookahead: the window >= 1 setting of the drain (simclock.go, DESIGN.md
// §12). Without it the drain fires one timestamp at a time; with it the
// drain pops a window of future timestamps whose events are all
// effect-tagged (tags.go), partitions them into conflict groups by
// transitive mask intersection, and fires disjoint groups concurrently —
// events from different instants executing in the same wall-clock round.
// Any tag conflict becomes an ordering barrier inside its group (the
// group fires in (timestamp, seq) order), and any untagged event stops
// the scan and fires as an ordinary same-instant group. Under the
// tagged-callback contract (time-explicit callbacks, masks covering every
// touched atom, follow-up masks ⊆ parent mask) the result is
// byte-identical to window 0 at any window and worker count.
package simclock

import (
	"sort"
	"sync/atomic"
	"time"

	"darkdns/internal/workpool"
)

// scanWindow pops, under s.mu, a contiguous prefix of the pending queue
// in (timestamp, seq) order consisting only of tagged due events, and
// returns it with each event's resolved mask. The scan stops — leaving
// the stopping event in the queue — at the first untagged event, at the
// first event past the quiet horizon (the minimum Quiet over events
// already selected: beyond it a selected event may spawn an untagged
// barrier), at the first event past the deadline, and when admitting
// the next event would exceed `window` distinct timestamps.
func (s *Sim) scanWindow(window int, deadline time.Time, bounded bool) ([]*event, []EffectTag) {
	var sel []*event
	var masks []EffectTag
	var lastAt, minQuiet time.Time
	distinct := 0
	for {
		ev, idx := s.peek()
		if ev == nil || (bounded && ev.at.After(deadline)) {
			break
		}
		if ev.fnT == nil {
			break // untagged: full barrier
		}
		mask := ev.tag
		if ev.tagFn != nil {
			mask = ev.tagFn()
		}
		if mask == 0 {
			break // dynamic mask resolved empty: treat as untagged
		}
		if !minQuiet.IsZero() && ev.at.After(minQuiet) {
			break // a selected event may spawn a barrier at minQuiet
		}
		if distinct == 0 || !ev.at.Equal(lastAt) {
			if distinct == window {
				break
			}
			distinct++
			lastAt = ev.at
		}
		s.popAt(idx)
		sel = append(sel, ev)
		masks = append(masks, mask)
		if !ev.quiet.IsZero() && (minQuiet.IsZero() || ev.quiet.Before(minQuiet)) {
			minQuiet = ev.quiet
		}
	}
	return sel, masks
}

// fireWindow partitions one scanned window into conflict groups by
// transitive mask intersection and fires them in two phases, outside
// s.mu. Phase A: every group containing an event with a Quiet horizon
// fires serially on the draining goroutine, all such groups interleaved
// in global (timestamp, seq) order — their callbacks may spawn untagged
// follow-ups (certificate requests), and serial firing gives those
// spawns the same sequence numbers the serial drain would have
// assigned. Phase B: the remaining groups fire concurrently on the
// worker pool, one task per group, each group internally in
// (timestamp, seq) order; their masks are pairwise disjoint and their
// callbacks time-explicit, so cross-group interleaving is unobservable.
func (s *Sim) fireWindow(sel []*event, masks []EffectTag, workers int) int {
	n := len(sel)
	firstAt := sel[0].at

	// Union-find over selection indices; mask/hasQuiet live at the root.
	parent := make([]int, n)
	umask := make([]EffectTag, n)
	hasQuiet := make([]bool, n)
	for i := 0; i < n; i++ {
		parent[i], umask[i], hasQuiet[i] = i, masks[i], !sel[i].quiet.IsZero()
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var conflicts int64
	for i := 1; i < n; i++ {
		joined := false
		// A merge can grow i's union mask into intersecting a group we
		// already passed, so sweep j until no merge happens.
		for changed := true; changed; {
			changed = false
			for j := 0; j < i; j++ {
				ri, rj := find(i), find(j)
				if ri == rj || umask[ri]&umask[rj] == 0 {
					continue
				}
				parent[rj] = ri
				umask[ri] |= umask[rj]
				hasQuiet[ri] = hasQuiet[ri] || hasQuiet[rj]
				joined, changed = true, true
			}
		}
		if joined {
			conflicts++
		}
	}

	// Gather groups in first-appearance order; member lists are ascending
	// (scan order == (timestamp, seq) order) by construction.
	members := make(map[int][]int, n)
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := members[r]; !ok {
			roots = append(roots, r)
		}
		members[r] = append(members[r], i)
	}

	// Partition: phase A merges every quiet-bearing group into one
	// serial sequence (global order); phase B groups fire on the pool.
	var quietIdx []int
	var quietMask EffectTag
	var tasks [][]int
	var taskMasks []EffectTag
	for _, r := range roots {
		if hasQuiet[r] {
			quietIdx = append(quietIdx, members[r]...)
			quietMask |= umask[r]
		} else {
			tasks = append(tasks, members[r])
			taskMasks = append(taskMasks, umask[r])
		}
	}
	sort.Ints(quietIdx)

	// Register every group as a live routing target before anything
	// fires: a callback scheduling a tagged follow-up that orders before
	// its group's final member would otherwise be jumped over (the later
	// member was popped at scan time), so pushEvent diverts such spawns
	// to the group's pending list and the firing loop below interleaves
	// them at their exact (timestamp, seq) position — what the serial
	// drain would have done.
	groups := make([]*laGroup, 0, len(tasks)+1)
	var quietG *laGroup
	if len(quietIdx) > 0 {
		quietG = &laGroup{mask: quietMask, lastAt: sel[quietIdx[len(quietIdx)-1]].at}
		groups = append(groups, quietG)
	}
	taskGs := make([]*laGroup, len(tasks))
	for k := range tasks {
		t := tasks[k]
		taskGs[k] = &laGroup{mask: taskMasks[k], lastAt: sel[t[len(t)-1]].at}
		groups = append(groups, taskGs[k])
	}
	s.mu.Lock()
	s.laGroups = groups
	s.mu.Unlock()

	var stolen, specStolen atomic.Int64
	fireRun := func(g *laGroup, idxs []int) {
		for _, i := range idxs {
			st, sp := s.drainPendingBefore(g, sel[i].at, firstAt)
			stolen.Add(st)
			specStolen.Add(sp)
			sel[i].fire()
		}
		s.closeGroup(g)
	}

	// Phase A: quiet-bearing groups, serial, in global order.
	if quietG != nil {
		fireRun(quietG, quietIdx)
	}
	// Phase B: disjoint groups on the pool.
	if len(tasks) > 0 {
		workpool.Run(len(tasks), workers, func(k int) { fireRun(taskGs[k], tasks[k]) })
	}
	s.mu.Lock()
	s.laGroups = nil
	s.mu.Unlock()

	var spec int64
	for _, ev := range sel {
		if !ev.at.Equal(firstAt) {
			spec++
		}
	}
	total := n + int(stolen.Load())
	s.specFired.Add(spec + specStolen.Load())
	s.conflicts.Add(conflicts)
	s.fired.Add(int64(total))
	return total
}

// laGroup is one conflict group of the currently-firing lookahead
// window, kept registered in Sim.laGroups while its members fire so
// pushEvent can divert in-window tagged spawns to it.
type laGroup struct {
	mask    EffectTag // union effect mask of the group's members
	lastAt  time.Time // instant of the group's final member
	pending []*event  // in-window spawns awaiting their firing position
}

// routeToWindow diverts ev — a tagged event being scheduled while a
// lookahead window fires — to the conflict group it belongs to, when its
// instant orders before that group's final member. The caller holds
// s.mu. Under the tagged contract a follow-up's mask is a subset of its
// parent's, so at most one group matches; spawns carry sequence numbers
// above every selected event's, so an equal-instant spawn correctly
// stays in the main queue (it fires after the group's member).
func (s *Sim) routeToWindow(ev *event) bool {
	mask := ev.tag
	if ev.tagFn != nil {
		mask = ev.tagFn()
	}
	if mask == 0 {
		return false
	}
	for _, g := range s.laGroups {
		if mask&g.mask != 0 && ev.at.Before(g.lastAt) {
			g.pending = append(g.pending, ev)
			return true
		}
	}
	return false
}

// drainPendingBefore fires, in (timestamp, seq) order, every pending
// spawn of g that precedes the group member at memberAt (strictly
// earlier instant — see routeToWindow for the equal-instant case).
// Firing a spawn may route further spawns to g, so the scan repeats
// until none precede the member. Returns the number fired and how many
// fired away from the window's first instant (speculative fires).
func (s *Sim) drainPendingBefore(g *laGroup, memberAt, firstAt time.Time) (fired, spec int64) {
	for {
		s.mu.Lock()
		best := -1
		for j, ev := range g.pending {
			if !ev.at.Before(memberAt) {
				continue
			}
			if best == -1 || ev.less(g.pending[best]) {
				best = j
			}
		}
		if best == -1 {
			s.mu.Unlock()
			return fired, spec
		}
		ev := g.pending[best]
		g.pending[best] = g.pending[len(g.pending)-1]
		g.pending = g.pending[:len(g.pending)-1]
		s.mu.Unlock()
		ev.fire()
		fired++
		if !ev.at.Equal(firstAt) {
			spec++
		}
	}
}

// closeGroup retires g as a routing target and returns any events its
// final member spawned to the main queue, where later windows (or
// barrier rounds) fire them in normal order.
func (s *Sim) closeGroup(g *laGroup) {
	s.mu.Lock()
	for i, og := range s.laGroups {
		if og == g {
			s.laGroups = append(s.laGroups[:i], s.laGroups[i+1:]...)
			break
		}
	}
	for _, ev := range g.pending {
		s.place(ev)
	}
	g.pending = nil
	s.mu.Unlock()
}
