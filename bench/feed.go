package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"darkdns/internal/feed"
	"darkdns/internal/stream"
)

// feedRig is one in-process feed tier on loopback TCP plus its framed
// subscribers. Everything it starts is stopped by close.
type feedRig struct {
	topic  *stream.Topic
	srv    *feed.Server
	addr   string
	ctx    context.Context
	cancel context.CancelFunc
	subs   []*feed.Subscription
}

// liveQueueBound replaces the default 1 024-entry subscriber queue. After
// a scheduler stall the open-loop generator catches up in one burst of
// 20 entries per millisecond stalled; with the default bound a 50 ms
// hiccup of a shared box sheds entries and fails the run. At this bound
// it takes 0.8 s, and shorter stalls show where they belong, in the tail
// latencies.
const liveQueueBound = 1 << 14

func openFeedRig() (*feedRig, error) {
	topic := stream.NewBus().Topic("bench-feed")
	cfg := feed.DefaultServerConfig()
	cfg.QueueBound = liveQueueBound
	srv := feed.NewServerConfig(topic, cfg)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// The deadline only bounds a delivery that stalls; the watchdog is
	// the last resort behind it.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	return &feedRig{topic: topic, srv: srv, addr: addr.String(), ctx: ctx, cancel: cancel}, nil
}

// subscribe opens n framed subscriptions replaying from offset 0 and
// returns how long each handshake took.
func (r *feedRig) subscribe(n int, tr *tracer, parent, run int) ([]float64, error) {
	var took []float64
	for i := 0; i < n; i++ {
		s := tr.begin("feed.Client.Subscribe", parent, run)
		sub, err := feed.NewClient(r.addr).Subscribe(r.ctx, feed.SubscribeOptions{From: 0, Buffer: 4096})
		took = append(took, ms(tr.end(s)))
		if err != nil {
			return took, err
		}
		r.subs = append(r.subs, sub)
	}
	return took, nil
}

// dropSubs closes every subscription and waits for its client goroutine.
func (r *feedRig) dropSubs() {
	for _, sub := range r.subs {
		sub.Close()
		for range sub.C {
		}
	}
	r.subs = nil
}

func (r *feedRig) close(tr *tracer) time.Duration {
	r.dropSubs()
	r.cancel()
	return tr.timed("feed.Server.Close", 0, 0, func() { r.srv.Close() })
}

// consume reads one subscription until it holds offset last and returns
// how many of the offsets 0..last were not delivered exactly once, in
// order and intact. stamp is called on every good entry as it arrives.
func consume(sub *feed.Subscription, in *feedInput, last int64, stamp func(off int64)) (bad int64) {
	next := int64(0)
	for ev := range sub.C {
		switch ev.Kind {
		case feed.EventEntry:
			off := ev.Entry.Offset
			switch {
			case off < next: // duplicate or reordered
				bad++
				continue
			case off > next: // silently skipped
				bad += off - next
			}
			if ev.Entry.Domain != in.keys[off] || ev.Entry.Raw != string(in.values[off]) {
				bad++
			} else {
				stamp(off)
			}
			next = off + 1
		case feed.EventGap:
			if ev.Gap.To >= next {
				bad += ev.Gap.To - next + 1
				next = ev.Gap.To + 1
			}
		}
		if next > last {
			return bad
		}
	}
	return bad + last + 1 - next // the stream ended early
}

// consumeAll runs consume on every subscription of the rig concurrently.
func (r *feedRig) consumeAll(in *feedInput, last int64, stamp func(sub int, off int64)) (bad int64) {
	var wg sync.WaitGroup
	bads := make([]int64, len(r.subs))
	for i, sub := range r.subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bads[i] = consume(sub, in, last, func(off int64) { stamp(i, off) })
		}()
	}
	wg.Wait()
	for _, b := range bads {
		bad += b
	}
	return bad
}

func (r *result) feedLayer(st feed.FanoutStats, subscribeMs []float64, closed time.Duration, publish *seam) {
	r.setLayer("feed.subscribe_ms", median(subscribeMs))
	r.setLayer("feed.close_ms", ms(closed))
	r.setLayer("feed.delivered", float64(st.Delivered))
	r.setLayer("feed.batches", float64(st.Batches))
	r.setLayer("feed.entries_per_batch", ratio(float64(st.Delivered), float64(st.Batches)))
	r.setLayer("feed.bytes_out", float64(st.BytesOut))
	r.setLayer("feed.heartbeats", float64(st.Heartbeats))
	r.setLayer("feed.shed", float64(st.Shed))
	r.setLayer("feed.gaps", float64(st.Gaps))
	r.setLayer("feed.max_queue_depth", float64(st.MaxDepth))
	r.setLayer("feed.encode_cache_hits", float64(st.EncodeCacheHits))
	r.setLayer("feed.encode_hit_ratio", ratio(float64(st.EncodeCacheHits), float64(st.Delivered)))
	r.setLayer("stream.feed_published", publish.count())
	r.setLayer("stream.publish_ns", publish.nsPerCall())
}

// liveOut is one open-loop run of feed_live.
type liveOut struct {
	setup       time.Duration
	wall        time.Duration
	deliverMs   [][]float64 // one per (entry, subscriber) delivered intact, grouped by the second it was due in
	lateMaxMs   float64     // how far behind its schedule the generator ran
	bad         int64
	mem         memDelta
	stats       feed.FanoutStats
	subscribeMs []float64
	closed      time.Duration
	publish     *seam
}

// liveRun publishes in on its fixed schedule to a fresh feed tier with W
// subscribers already attached, and times every entry from the instant it
// was due to its receipt by each subscriber.
func liveRun(e *env, in *feedInput, tr *tracer, run int) (*liveOut, error) {
	out := &liveOut{publish: tr.seam("stream.Topic.Publish", run, nil)}
	setupStart := time.Now()
	rig, err := openFeedRig()
	if err != nil {
		return nil, err
	}
	if out.subscribeMs, err = rig.subscribe(e.width, tr, 0, run); err != nil {
		rig.close(tr)
		return nil, err
	}
	out.setup = time.Since(setupStart)

	n := len(in.keys)
	seconds := int(in.dueOffset(n-1)/time.Second) + 1
	lat := make([][][]float64, e.width) // [subscriber][second due]
	for i := range lat {
		lat[i] = make([][]float64, seconds)
	}
	mark := markMem()
	// Subscribers are attached; give their sessions a moment to go live
	// so that the first bursts take the pump's path, not the replay one.
	start := time.Now().Add(20 * time.Millisecond)
	s := tr.begin("feed_live.run", 0, run)
	var gen sync.WaitGroup
	gen.Add(1)
	go func() {
		defer gen.Done()
		for i := 0; i < n; i += in.burst {
			due := start.Add(in.dueOffset(i))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			out.lateMaxMs = max(out.lateMaxMs, ms(time.Since(due)))
			for j := i; j < min(i+in.burst, n); j++ {
				t := out.publish.enter()
				rig.topic.Publish(due, in.keys[j], in.values[j])
				out.publish.exit(t)
			}
		}
	}()
	out.bad = rig.consumeAll(in, int64(n-1), func(sub int, off int64) {
		due := in.dueOffset(int(off))
		lat[sub][due/time.Second] = append(lat[sub][due/time.Second], ms(time.Since(start)-due))
	})
	gen.Wait()
	out.wall = tr.end(s)
	out.mem = mark.delta()
	out.deliverMs = make([][]float64, seconds)
	for _, perSecond := range lat {
		for sec, l := range perSecond {
			out.deliverMs[sec] = append(out.deliverMs[sec], l...)
		}
	}
	out.stats = rig.srv.Stats()
	out.closed = rig.close(tr)
	return out, nil
}

// liveBurst entries are due together: at 20 000 entries/s, one burst every 0.8 ms.
const liveBurst = 16

// runFeedLive is the open-loop workload: the released artefact is a live
// feed, and publish→receipt delay at a rate well under saturation is what
// its users see.
func runFeedLive(e *env) *result {
	res := newResult()
	n := e.size.liveEntries
	if n == 0 {
		n = int(float64(e.size.liveRate) * e.seconds)
	}
	period := time.Duration(float64(liveBurst) / float64(e.size.liveRate) * float64(time.Second))

	// Set-up here is milliseconds, so one reading is mostly noise: four
	// throwaway set-ups (generate, start, attach) precede the measured
	// run's own, and the median of the five is reported.
	var setups []float64
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		genFeedInput(e.seed, n, liveBurst, period)
		rig, err := openFeedRig()
		if err == nil {
			_, err = rig.subscribe(e.width, nil, 0, 0)
			setups = append(setups, time.Since(t0).Seconds())
			rig.close(nil)
		}
		if err != nil {
			e.failf(1, "set-up: %v", err)
			return res
		}
	}
	t0 := time.Now()
	in := genFeedInput(e.seed, n, liveBurst, period)
	lastGen := time.Since(t0)
	res.notes = append(res.notes, "input_hash="+in.hash,
		fmt.Sprintf("open loop: %d entries, bursts of %d every %v; traffic crosses loopback TCP, not a link", n, liveBurst, period))

	phases := []*tracer{nil}
	if e.tr != nil {
		// Half the schedule untraced, half traced, on separate tiers.
		half := *in
		half.keys, half.values = in.keys[:n/2], in.values[:n/2]
		in = &half
		phases = append(phases, e.tr)
	}
	var outs []*liveOut
	for run, tr := range phases {
		out, err := liveRun(e, in, tr, run+1)
		if err != nil {
			e.failf(1, "run: %v", err)
			return res
		}
		outs = append(outs, out)
		res.attempted += int64(len(in.keys) * e.width)
		if out.bad > 0 {
			e.failf(out.bad, "%d of %d deliveries shed, gapped, duplicated, reordered, altered or missing", out.bad, len(in.keys)*e.width)
		}
	}
	plain := outs[0]
	setups = append(setups, (lastGen + plain.setup).Seconds())
	res.endToEnd(setups, []float64{plain.wall.Seconds()}, plain.deliverMs, int64(len(in.keys)*e.width), plain.mem)
	if e.tr != nil {
		traced := outs[1]
		sorted := sortedCopy(slices.Concat(traced.deliverMs...))
		res.setLayer("feed.deliver_p99_ms", percentile(sorted, 0.99))
		res.setLayer("feed.deliver_p999_ms", percentile(sorted, 0.999))
		res.setLayer("feed.deliver_max_ms", percentile(sorted, 1))
		res.setLayer("feed.generator_late_max_ms", traced.lateMaxMs)
		res.feedLayer(traced.stats, traced.subscribeMs, traced.closed, traced.publish)
		res.runtimeLayer(traced.mem, median(slices.Concat(plain.deliverMs...)), percentile(sorted, 0.5))
	}
	return res
}

// runFeedReplay is the same feed layer used the other way: W subscribers
// catch up on a pre-filled topic from offset 0 at saturation (log reads
// plus the encode cache) instead of the pump's live path.
func runFeedReplay(e *env) *result {
	res := newResult()
	n := e.size.replayEntries
	publish := e.tr.seam("stream.Topic.Publish", 0, nil)

	setupStart := time.Now()
	in := genFeedInput(e.seed, n, 1, 0)
	rig, err := openFeedRig()
	if err != nil {
		e.failf(1, "set-up: %v", err)
		return res
	}
	when := time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)
	for i := range in.keys {
		t := publish.enter()
		rig.topic.Publish(when, in.keys[i], in.values[i])
		publish.exit(t)
	}
	res.notes = append(res.notes, "input_hash="+in.hash,
		fmt.Sprintf("closed loop: %d subscribers replay %d entries; traffic crosses loopback TCP, not a link", e.width, n))

	var deliverMs [][]float64
	var subscribeMs []float64
	// One rep: W subscribers SUBSCRIBE FROM 0 and read to the last offset.
	rep := func(tr *tracer, run int, keep bool) (time.Duration, int64) {
		var mu sync.Mutex
		var took []float64
		s := tr.begin("rep", 0, run)
		subscribed, err := rig.subscribe(e.width, tr, s.id, run)
		if err != nil {
			tr.end(s)
			e.failf(1, "rep %d: subscribe: %v", run, err)
			return 0, 0
		}
		bad := rig.consumeAll(in, int64(n-1), func(_ int, off int64) {
			// A sample of the delivery times is enough for the median
			// and keeps millions of stamps out of the timed region.
			if keep && off%64 == 0 {
				d := ms(time.Since(s.start))
				mu.Lock()
				took = append(took, d)
				mu.Unlock()
			}
		})
		wall := tr.end(s)
		rig.dropSubs()
		if keep {
			deliverMs = append(deliverMs, took)
		}
		subscribeMs = append(subscribeMs, subscribed...)
		res.attempted += int64(n * e.width)
		if bad > 0 {
			e.failf(bad, "rep %d: %d of %d deliveries gapped, duplicated, reordered, altered or missing", run, bad, n*e.width)
		}
		return wall, int64(n * e.width)
	}
	rep(nil, 0, false) // warm-up
	setup := time.Since(setupStart)

	t := e.timedReps(e.size.replayReps, func(tr *tracer, run int) (time.Duration, int64) { return rep(tr, run, tr == nil) })
	stats := rig.srv.Stats()
	closed := rig.close(e.tr)
	res.endToEnd([]float64{setup.Seconds()}, t.walls, deliverMs, t.items, t.mem)
	if e.tr != nil {
		res.feedLayer(stats, subscribeMs, closed, publish)
		res.runtimeLayer(t.mem, median(t.walls), median(t.tracedWalls))
	}
	return res
}
