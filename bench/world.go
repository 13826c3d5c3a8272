package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"darkdns/internal/worldsim"
)

// runWorldBuild measures what a sweep or paper-scale user pays per world:
// compile the layouts, save them as a columnar snapshot, and build a
// committed world from that snapshot. The clock is never drained, so the
// fleet and pipeline do nothing — the mirror image of the campaigns.
func runWorldBuild(e *env) *result {
	res := newResult()
	cfg := worldsim.DefaultConfig(e.seed, e.size.worldScale)
	cfg.Weeks = e.size.worldWeeks
	cfg.BuildWorkers, cfg.CommitWorkers = e.width, e.width
	res.notes = append(res.notes, fmt.Sprintf("input_hash=%s (worldsim.Config seed=%d scale=%g weeks=%d)",
		inputDigest(fmt.Sprint(e.seed, e.size.worldScale, e.size.worldWeeks)), e.seed, e.size.worldScale, e.size.worldWeeks))

	// The reference is a world built the plain way, without a snapshot.
	setupStart := time.Now()
	plain := worldsim.New(cfg)
	wantDomains, wantPending := plain.Domains.Len(), plain.Clock.Pending()
	plain.Stop()
	if wantDomains == 0 || wantPending == 0 {
		e.failf(1, "reference world is empty: domains=%d pending=%d", wantDomains, wantPending)
	}
	res.attempted++
	var buf bytes.Buffer
	snapCfg := cfg
	snapCfg.SnapshotPath = filepath.Join(e.tmp, fmt.Sprintf("world-%d.dsnw", os.Getpid()))
	defer os.Remove(snapCfg.SnapshotPath)
	acc := layerAcc{}

	// One rep: compile → save → file → world from snapshot → stop.
	rep := func(tr *tracer, run int) (time.Duration, int64) {
		res.attempted++
		var mark *memMark
		if tr != nil {
			mark = markMem()
		}
		s := tr.begin("rep", 0, run)
		var ls *worldsim.LayoutSet
		compile := tr.timed("worldsim.CompileLayoutSet", s.id, run, func() { ls = worldsim.CompileLayoutSet(cfg) })
		buf.Reset()
		var err error
		save := tr.timed("worldsim.SaveSnapshot", s.id, run, func() { err = worldsim.SaveSnapshot(&buf, ls) })
		if err == nil {
			err = os.WriteFile(snapCfg.SnapshotPath, buf.Bytes(), 0o644)
		}
		if err != nil {
			tr.end(s)
			e.failf(1, "rep %d: snapshot: %v", run, err)
			return 0, 0
		}
		compiles, loads := worldsim.CompileCount(), worldsim.SnapshotLoadCount()
		var w *worldsim.World
		fromSnap := tr.timed("worldsim.New", s.id, run, func() { w = worldsim.New(snapCfg) })
		w.Stop()
		wall := tr.end(s)

		domains := ls.Domains()
		if got := w.Domains.Len(); got != wantDomains || w.Clock.Pending() != wantPending ||
			worldsim.CompileCount() != compiles || worldsim.SnapshotLoadCount() != loads+1 {
			e.failf(1, "rep %d: snapshot-hit world differs: domains %d/%d pending %d/%d compiles +%d loads +%d", run,
				got, wantDomains, w.Clock.Pending(), wantPending, worldsim.CompileCount()-compiles, worldsim.SnapshotLoadCount()-loads)
		}
		if tr != nil {
			mem := mark.delta()
			// The load New just did internally, once more on its own.
			load := tr.timed("worldsim.LoadSnapshot", s.id, run, func() { _, err = worldsim.LoadSnapshot(bytes.NewReader(buf.Bytes())) })
			if err != nil {
				e.failf(1, "rep %d: load snapshot: %v", run, err)
			}
			acc.add("worldsim.compile_s", compile.Seconds())
			acc.add("worldsim.snapshot_save_s", save.Seconds())
			acc.add("worldsim.snapshot_load_s", load.Seconds())
			acc.add("worldsim.new_from_snapshot_s", fromSnap.Seconds())
			acc.add("worldsim.commit_s", (fromSnap - load).Seconds())
			acc.add("worldsim.domains", float64(w.Domains.Len()))
			acc.add("worldsim.mallocs_per_domain", ratio(mem.mallocs, float64(domains)))
			acc.add("columnar.snapshot_bytes", float64(buf.Len()))
			acc.add("columnar.bytes_per_domain", ratio(float64(buf.Len()), float64(domains)))
			acc.add("simclock.schedule_batch_events", float64(w.Clock.Pending()))
		}
		return wall, int64(domains)
	}
	for i := 0; i < e.size.worldWarmups; i++ {
		rep(nil, 0)
	}
	setup := time.Since(setupStart)

	t := e.timedReps(e.size.worldReps, rep)
	res.endToEnd([]float64{setup.Seconds()}, t.walls, [][]float64{scale(t.walls, 1000)}, t.items, t.mem)
	if e.tr != nil {
		res.layerMedians(acc)
		res.runtimeLayer(t.mem, median(t.walls), median(t.tracedWalls))
	}
	return res
}
