package feed

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"darkdns/internal/stream"
)

// startFeedConfig is startFeed with explicit server configuration.
func startFeedConfig(t *testing.T, cfg ServerConfig) (*stream.Topic, string, func()) {
	t.Helper()
	topic, addr, srv := startFeedServer(t, cfg)
	return topic, addr, func() { srv.Close() }
}

// startFeedServer serves a fresh topic until the test ends and hands the
// server out for its Stats.
func startFeedServer(t *testing.T, cfg ServerConfig) (*stream.Topic, string, *Server) {
	t.Helper()
	topic := stream.NewBus().Topic("nrd-feed")
	srv := NewServerConfig(topic, cfg)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return topic, addr.String(), srv
}

// --- Satellite: consumer-group lifecycle ---------------------------------

// TestNoConsumerGroupLeak cycles many replaying and live-tailing
// connections and asserts the topic's group map returns to its prior
// size: the old server leaked one conn-<addr>-<nanos> group per
// connection forever.
func TestNoConsumerGroupLeak(t *testing.T) {
	bus := stream.NewBus()
	topic := bus.Topic("nrd-feed")
	before := len(topic.Groups())

	srv := NewServer(topic)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	topic.Publish(t0, "a.com", nil)
	for i := 0; i < 100; i++ {
		conn, r := rawSession(t, addr.String())
		if i%2 == 0 {
			fmt.Fprintf(conn, "SUBSCRIBE\n")
		} else {
			fmt.Fprintf(conn, "SUBSCRIBE FROM 0\n")
		}
		if _, err := r.ReadString('\n'); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		conn.Close()
	}
	// While serving, the only group is the tier's single fan-out pump.
	if got := len(topic.Groups()); got != before+1 {
		t.Errorf("groups while serving = %d (%v), want %d", got, topic.Groups(), before+1)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(topic.Groups()); got != before {
		t.Errorf("groups after close = %d (%v), want %d", got, topic.Groups(), before)
	}
}

// --- Satellite: Close actually stops the server --------------------------

// TestCloseDrainsGoroutines serves live sessions, closes the server, and
// asserts the goroutine count returns to its pre-Serve level.
func TestCloseDrainsGoroutines(t *testing.T) {
	bus := stream.NewBus()
	topic := bus.Topic("nrd-feed")
	for i := 0; i < 10; i++ {
		topic.Publish(t0, fmt.Sprintf("d%d.com", i), nil)
	}
	before := runtime.NumGoroutine()

	srv := NewServer(topic)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A mix of live sessions in every state: mid-delivery, idle before
	// SUBSCRIBE, tailing.
	for i := 0; i < 8; i++ {
		conn, r := rawSession(t, addr.String())
		switch i % 3 {
		case 0:
			fmt.Fprintf(conn, "SUBSCRIBE FROM 0\n")
		case 1:
			fmt.Fprintf(conn, "HELLO t%d\n", i)
		case 2:
			fmt.Fprintf(conn, "SUBSCRIBE\n")
		}
		if _, err := r.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waits for the pump, acceptor, and all session goroutines;
	// client-side dial goroutines may need a beat to unwind.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Close is idempotent.
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestServeAfterCloseRefused covers the Serve/Close race guard.
func TestServeAfterCloseRefused(t *testing.T) {
	srv := NewServer(stream.NewBus().Topic("t"))
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Serve("127.0.0.1:0"); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve after Close = %v, want ErrServerClosed", err)
	}
}

// --- Acceptance: fan-out determinism -------------------------------------

// TestMultiSubscriberDeterminism subscribes many clients at the same
// offset while the topic is still being published and asserts every one
// observes the byte-identical entry sequence with no gaps.
func TestMultiSubscriberDeterminism(t *testing.T) {
	topic, addr, stop := startFeed(t)
	defer stop()
	const entries, subs = 300, 8
	for i := 0; i < entries/2; i++ {
		topic.Publish(t0.Add(time.Duration(i)*time.Second), fmt.Sprintf("d%d.com", i), []byte("{}"))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	type result struct {
		id  int
		seq string
		err error
	}
	results := make(chan result, subs)
	for s := 0; s < subs; s++ {
		go func(id int) {
			sub, err := NewClient(addr).Subscribe(ctx, SubscribeOptions{From: 0})
			if err != nil {
				results <- result{id: id, err: err}
				return
			}
			defer sub.Close()
			var b strings.Builder
			n := 0
			for ev := range sub.C {
				switch ev.Kind {
				case EventEntry:
					fmt.Fprintf(&b, "%d:%s:%s;", ev.Entry.Offset, ev.Entry.Domain, ev.Entry.Time.Format(time.RFC3339))
					n++
				case EventGap:
					fmt.Fprintf(&b, "GAP[%d-%d];", ev.Gap.From, ev.Gap.To)
				}
				if n == entries {
					results <- result{id: id, seq: b.String()}
					return
				}
			}
			results <- result{id: id, err: fmt.Errorf("stream ended early: %v", sub.Err())}
		}(s)
	}
	// Publish the second half while the subscribers are live.
	for i := entries / 2; i < entries; i++ {
		topic.Publish(t0.Add(time.Duration(i)*time.Second), fmt.Sprintf("d%d.com", i), []byte("{}"))
	}
	var first string
	for i := 0; i < subs; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("subscriber %d: %v", r.id, r.err)
		}
		if first == "" {
			first = r.seq
		} else if r.seq != first {
			t.Fatalf("subscriber %d sequence diverged:\n%s\nvs\n%s", r.id, r.seq, first)
		}
	}
	if strings.Contains(first, "GAP") {
		t.Fatalf("unshedded subscribers saw gaps: %s", first)
	}
}

// --- Shedding ------------------------------------------------------------

// TestQueueShedDeterministic is the slow-subscriber determinism check at
// the queue level: a fixed bound and a fixed offer/take schedule produce
// exactly the same delivered+GAP sequence every run.
func TestQueueShedDeterministic(t *testing.T) {
	run := func() string {
		q := newSubQueue(4, ShedDropOldest)
		q.goLive()
		mk := func(lo, hi int64) []wireEntry {
			var ents []wireEntry
			for o := lo; o <= hi; o++ {
				ents = append(ents, wireEntry{off: o})
			}
			return ents
		}
		var b strings.Builder
		record := func() {
			ents, gap, ok, err := q.take(time.Millisecond)
			if !ok || err != nil {
				t.Fatalf("take: ok=%v err=%v", ok, err)
			}
			if gap != nil {
				fmt.Fprintf(&b, "GAP[%d-%d:%d];", gap.From, gap.To, gap.Dropped)
			}
			for _, e := range ents {
				fmt.Fprintf(&b, "%d;", e.off)
			}
		}
		q.offer(mk(0, 9)) // overflows: 0..5 shed, 6..9 kept
		record()
		q.offer(mk(10, 12)) // fits
		record()
		q.offer(mk(13, 29)) // overflows: 13..25 shed, 26..29 kept
		q.offer(mk(30, 31)) // overflows again: 26..27 shed, merge into range
		record()
		return b.String()
	}
	want := "GAP[0-5:6];6;7;8;9;10;11;12;GAP[13-27:15];28;29;30;31;"
	for i := 0; i < 3; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d: got %q, want %q", i, got, want)
		}
	}
}

func TestQueueDisconnectPolicy(t *testing.T) {
	q := newSubQueue(2, ShedDisconnect)
	q.goLive()
	q.offer([]wireEntry{{off: 0}, {off: 1}, {off: 2}})
	if _, _, ok, err := q.take(time.Millisecond); ok || !errors.Is(err, ErrSlowConsumer) {
		t.Fatalf("take after overflow: ok=%v err=%v, want closed with ErrSlowConsumer", ok, err)
	}
}

// subscribeLive subscribes over a raw session and returns once the
// subscription is consuming from its bounded queue. The subscribed frame
// alone does not say so: the writer sends it and then replays the log
// before going live, and entries published in that window are read
// straight from the log at the tenant's rate — never queued, so never
// shed. The first heartbeat can only come from the live loop. The server
// needs a short ServerConfig.Heartbeat for this to be quick.
func subscribeLive(t *testing.T, addr string) *bufio.Reader {
	t.Helper()
	conn, r := rawSession(t, addr)
	fmt.Fprintf(conn, "SUBSCRIBE\n")
	if f := readFrameLine(t, r); f.Kind != FrameSubscribed {
		t.Fatalf("subscribed = %+v", f)
	}
	if f := readFrameLine(t, r); f.Kind != FrameHeartbeat {
		t.Fatalf("first frame of an idle live subscription = %+v, want a heartbeat", f)
	}
	return r
}

// TestSlowSubscriberShedsWithGap drives a real session into shedding via
// a tenant rate limit and asserts the delivery invariant: the union of
// delivered offsets and advertised GAP ranges tiles the published range
// with no silent holes. Overflow is deterministic: the subscription is
// live before the first publish, every publish is done before the first
// read, and 2000 entries against a 200-entry burst, 200 entries/s and a
// queue of 8 cannot fit however the pump and the writer are scheduled.
func TestSlowSubscriberShedsWithGap(t *testing.T) {
	bus := stream.NewBus()
	topic := bus.Topic("nrd-feed")
	srv := NewServerConfig(topic, ServerConfig{
		QueueBound: 8,
		ShedPolicy: ShedDropOldest,
		BatchMax:   8,
		TenantRate: 200, // entries/s: throttles the writer so the queue overflows
		Heartbeat:  20 * time.Millisecond,
	})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r := subscribeLive(t, addr.String())
	const n = 2000
	for i := 0; i < n; i++ {
		topic.Publish(t0, fmt.Sprintf("d%d.com", i), nil)
	}

	covered := make([]bool, n)
	shedGaps := 0
	var last int64 = -1
	deadline := time.Now().Add(20 * time.Second)
	for covered[n-1] == false && time.Now().Before(deadline) {
		f := readFrameLine(t, r)
		switch f.Kind {
		case FrameData:
			for _, e := range f.Entries {
				if e.Offset <= last {
					t.Fatalf("offset %d delivered after %d", e.Offset, last)
				}
				if e.Offset != last+1 {
					t.Fatalf("silent hole: offset %d follows %d without a GAP", e.Offset, last)
				}
				covered[e.Offset] = true
				last = e.Offset
			}
		case FrameGap:
			if f.Gap == nil || f.Gap.Reason != "shed" {
				t.Fatalf("gap frame = %+v", f)
			}
			if f.Gap.From != last+1 {
				t.Fatalf("gap [%d-%d] does not continue from %d", f.Gap.From, f.Gap.To, last)
			}
			for o := f.Gap.From; o <= f.Gap.To; o++ {
				covered[o] = true
			}
			last = f.Gap.To
			shedGaps++
		case FrameHeartbeat:
		default:
			t.Fatalf("unexpected frame %+v", f)
		}
	}
	for o, c := range covered {
		if !c {
			t.Fatalf("offset %d neither delivered nor gap-marked", o)
		}
	}
	if shedGaps == 0 {
		t.Fatal("queue bound 8 with 2000 rapid entries never shed")
	}
	if st := srv.Stats(); st.Shed == 0 || st.Gaps == 0 {
		t.Errorf("stats did not count shedding: %+v", st)
	}
}

// TestDisconnectPolicyCutsSlowConsumer asserts the alternative shed
// policy: overflow terminates the session with a structured
// slow_consumer error frame. Deterministic the same way as
// TestSlowSubscriberShedsWithGap: live first, then every publish, then
// the first read.
func TestDisconnectPolicyCutsSlowConsumer(t *testing.T) {
	bus := stream.NewBus()
	topic := bus.Topic("nrd-feed")
	srv := NewServerConfig(topic, ServerConfig{
		QueueBound: 4,
		ShedPolicy: ShedDisconnect,
		TenantRate: 50,
		Heartbeat:  20 * time.Millisecond,
	})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r := subscribeLive(t, addr.String())
	for i := 0; i < 500; i++ {
		topic.Publish(t0, fmt.Sprintf("d%d.com", i), nil)
	}
	sawError := false
	for !sawError {
		f := readFrameLine(t, r)
		if f.Kind == FrameError {
			if f.Code != CodeSlowConsumer {
				t.Fatalf("error code = %s, want %s", f.Code, CodeSlowConsumer)
			}
			sawError = true
		}
	}
	if st := srv.Stats(); st.Disconnects != 1 {
		t.Errorf("Disconnects = %d, want 1", st.Disconnects)
	}
}

// --- Satellite: encode failures are gap-marked, not silent ---------------

// poisonTime is the one input the entry encoder refuses: RFC 3339 has no
// five-digit year.
var poisonTime = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)

// readTrace reads frames until want entries and gaps have arrived and
// renders them as "E<offset>" and "G[from-to:reason]". A DATA frame's
// next cursor must never move backwards.
func readTrace(t *testing.T, r *bufio.Reader, want int) string {
	t.Helper()
	var trace []string
	var cursor int64
	for len(trace) < want {
		f := readFrameLine(t, r)
		switch f.Kind {
		case FrameData:
			for _, e := range f.Entries {
				trace = append(trace, fmt.Sprintf("E%d", e.Offset))
			}
			if f.Next < cursor {
				t.Fatalf("next went backwards: %d after %d", f.Next, cursor)
			}
			cursor = f.Next
		case FrameGap:
			trace = append(trace, fmt.Sprintf("G[%d-%d:%s]", f.Gap.From, f.Gap.To, f.Gap.Reason))
		case FrameHeartbeat:
		default:
			t.Fatalf("unexpected frame %+v", f)
		}
	}
	return strings.Join(trace, " ")
}

// TestEncodeFailureCountedAndGapMarked replays a log holding one entry
// that cannot be encoded: the subscriber must receive the surrounding
// entries plus an explicit encode GAP, in offset order, and Stats must
// count the drop. The old send loop's `continue` created an invisible
// hole instead.
func TestEncodeFailureCountedAndGapMarked(t *testing.T) {
	t.Parallel()
	topic, addr, srv := startFeedServer(t, ServerConfig{})
	topic.Publish(t0, "d0.com", nil)
	topic.Publish(poisonTime, "poison.com", nil)
	topic.Publish(t0, "d2.com", nil)

	conn, r := rawSession(t, addr)
	fmt.Fprintf(conn, "SUBSCRIBE FROM 0\n")
	if f := readFrameLine(t, r); f.Kind != FrameSubscribed {
		t.Fatalf("subscribed = %+v", f)
	}
	if got := readTrace(t, r, 3); got != "E0 G[1-1:encode] E2" {
		t.Fatalf("delivery trace = %q, want \"E0 G[1-1:encode] E2\"", got)
	}
	if st := srv.Stats(); st.EncodeDrops != 1 {
		t.Errorf("EncodeDrops = %d, want 1", st.EncodeDrops)
	}
}

// TestEncodeFailureOnLivePath is the same poison on the pump's path: the
// pump meets the failure, the hole travels through the subscriber's
// queue, and the writer marks it where it falls.
func TestEncodeFailureOnLivePath(t *testing.T) {
	t.Parallel()
	topic, addr, srv := startFeedServer(t, ServerConfig{Heartbeat: 20 * time.Millisecond})
	r := subscribeLive(t, addr)
	topic.Publish(t0, "d0.com", nil)
	topic.Publish(poisonTime, "poison.com", nil)
	topic.Publish(t0, "d2.com", nil)

	if got := readTrace(t, r, 3); got != "E0 G[1-1:encode] E2" {
		t.Fatalf("delivery trace = %q, want \"E0 G[1-1:encode] E2\"", got)
	}
	st := waitStats(t, srv, func(st FanoutStats) bool { return st.EncodeCacheHits == 2 })
	if st.EncodeDrops != 1 {
		t.Errorf("EncodeDrops = %d, want 1", st.EncodeDrops)
	}
}

// --- Tenancy -------------------------------------------------------------

func TestTenantSubscriberCap(t *testing.T) {
	topic, addr, stop := startFeedConfig(t, ServerConfig{TenantMaxSubscribers: 1})
	defer stop()
	topic.Publish(t0, "a.com", nil)

	conn1, r1 := rawSession(t, addr)
	fmt.Fprintf(conn1, "HELLO acme\nSUBSCRIBE\n")
	if f := readFrameLine(t, r1); f.Kind != FrameWelcome {
		t.Fatalf("welcome = %+v", f)
	}
	if f := readFrameLine(t, r1); f.Kind != FrameSubscribed {
		t.Fatalf("subscribed = %+v", f)
	}

	conn2, r2 := rawSession(t, addr)
	fmt.Fprintf(conn2, "HELLO acme\nSUBSCRIBE\n")
	if f := readFrameLine(t, r2); f.Kind != FrameWelcome {
		t.Fatalf("welcome = %+v", f)
	}
	if f := readFrameLine(t, r2); f.Kind != FrameError || f.Code != CodeTenantLimit {
		t.Fatalf("second acme subscription answered %+v, want %s", f, CodeTenantLimit)
	}
	// Another tenant is unaffected; the capped session can re-HELLO.
	fmt.Fprintf(conn2, "HELLO beta\nSUBSCRIBE\n")
	if f := readFrameLine(t, r2); f.Kind != FrameWelcome || f.Tenant != "beta" {
		t.Fatalf("re-HELLO = %+v", f)
	}
	if f := readFrameLine(t, r2); f.Kind != FrameSubscribed {
		t.Fatalf("beta subscribe = %+v", f)
	}
	// Unsubscribing releases the cap.
	fmt.Fprintf(conn1, "UNSUBSCRIBE\n")
	for {
		if f := readFrameLine(t, r1); f.Kind == FrameBye {
			break
		}
	}
	conn3, r3 := rawSession(t, addr)
	fmt.Fprintf(conn3, "HELLO acme\n")
	if f := readFrameLine(t, r3); f.Kind != FrameWelcome {
		t.Fatalf("welcome = %+v", f)
	}
	// BYE goes out before the server gives the tenant's slot back, so the
	// first attempts may still find the cap taken; a refused session stays
	// open and may ask again.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		fmt.Fprintf(conn3, "SUBSCRIBE\n")
		f := readFrameLine(t, r3)
		if f.Kind == FrameSubscribed {
			break
		}
		if f.Kind != FrameError || f.Code != CodeTenantLimit || time.Now().After(deadline) {
			t.Fatalf("acme after release = %+v", f)
		}
	}
}

// --- Client: Subscribe / auto-resume -------------------------------------

// TestSubscribeDeliversEntriesAndOffsets covers the new client surface.
func TestSubscribeDeliversEntriesAndOffsets(t *testing.T) {
	topic, addr, stop := startFeed(t)
	defer stop()
	for i := 0; i < 5; i++ {
		topic.Publish(t0, fmt.Sprintf("d%d.com", i), nil)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, err := NewClient(addr).Subscribe(ctx, SubscribeOptions{Tenant: "acme", From: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var got []int64
	for ev := range sub.C {
		if ev.Kind == EventEntry {
			got = append(got, ev.Entry.Offset)
		}
		if len(got) == 3 {
			break
		}
	}
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("offsets = %v", got)
	}
	if sub.NextOffset() != 5 {
		t.Errorf("NextOffset = %d, want 5", sub.NextOffset())
	}
}

// TestSubscribeRejectsProtocolError asserts server-side rejections
// surface from Subscribe synchronously.
func TestSubscribeRejectsProtocolError(t *testing.T) {
	topic, addr, stop := startFeedConfig(t, ServerConfig{TenantMaxSubscribers: 1})
	defer stop()
	_ = topic
	ctx := context.Background()
	first, err := NewClient(addr).Subscribe(ctx, SubscribeOptions{Tenant: "acme", From: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	_, err = NewClient(addr).Subscribe(ctx, SubscribeOptions{Tenant: "acme", From: -1})
	if err == nil || !strings.Contains(err.Error(), CodeTenantLimit) {
		t.Fatalf("second subscribe err = %v, want %s", err, CodeTenantLimit)
	}
}

// TestClientAutoResume kills the server mid-stream, restarts it on the
// same address, and asserts the subscription resumes from the last
// delivered offset with no loss or duplication.
func TestClientAutoResume(t *testing.T) {
	bus := stream.NewBus()
	topic := bus.Topic("nrd-feed")
	srv1 := NewServer(topic)
	addr, err := srv1.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		topic.Publish(t0, fmt.Sprintf("d%d.com", i), nil)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sub, err := NewClient(addr.String()).Subscribe(ctx, SubscribeOptions{
		From:              0,
		AutoResume:        true,
		ResumeBackoff:     20 * time.Millisecond,
		MaxResumeAttempts: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var offsets []int64
	resumes := 0
	collect := func(n int) {
		t.Helper()
		for len(offsets) < n {
			ev, ok := <-sub.C
			if !ok {
				t.Fatalf("stream ended early (%v); got %v", sub.Err(), offsets)
			}
			switch ev.Kind {
			case EventEntry:
				offsets = append(offsets, ev.Entry.Offset)
			case EventResumed:
				resumes++
			case EventGap:
				t.Fatalf("unexpected gap %+v", ev.Gap)
			}
		}
	}
	collect(5)

	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(topic)
	if _, err := srv2.Serve(addr.String()); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	for i := 5; i < 10; i++ {
		topic.Publish(t0, fmt.Sprintf("d%d.com", i), nil)
	}
	collect(10)

	for i, off := range offsets {
		if off != int64(i) {
			t.Fatalf("offsets = %v: position %d is %d (loss or duplication across resume)", offsets, i, off)
		}
	}
	if resumes == 0 {
		t.Error("no EventResumed observed across the restart")
	}
}

// TestStreamShimStopsOnCancelAndReplays (the name is from the retired
// Client.Stream shim) pins its contract on Subscribe itself: a consumer
// that cancels from inside its own loop, right after the last replayed
// entry, sees exactly the replay and then ErrStopped.
func TestStreamShimStopsOnCancelAndReplays(t *testing.T) {
	topic, addr, stop := startFeed(t)
	defer stop()
	topic.Publish(t0, "a.com", nil)
	topic.Publish(t0, "b.com", nil)

	ctx, cancel := context.WithCancel(context.Background())
	var got []string
	done := subscribe(t, ctx, addr, 0, func(e Entry) {
		got = append(got, e.Domain)
		if len(got) == 2 {
			cancel()
		}
	})
	select {
	case err := <-done:
		if !errors.Is(err, ErrStopped) {
			t.Errorf("subscription ended with %v, want ErrStopped", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscription did not stop")
	}
	if len(got) != 2 || got[0] != "a.com" {
		t.Errorf("replayed %v", got)
	}
}

// TestStatsSurface sanity-checks the counter surface end to end.
func TestStatsSurface(t *testing.T) {
	bus := stream.NewBus()
	topic := bus.Topic("nrd-feed")
	srv := NewServer(topic)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 10; i++ {
		topic.Publish(t0, fmt.Sprintf("d%d.com", i), nil)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, err := NewClient(addr.String()).Subscribe(ctx, SubscribeOptions{Tenant: "acme", From: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	n := 0
	for ev := range sub.C {
		if ev.Kind == EventEntry {
			if n++; n == 10 {
				break
			}
		}
	}
	// The server counts a batch (Delivered, then Batches) after its socket
	// write returns, so the client can hold the tenth entry before either
	// counter has moved.
	deadline := time.Now().Add(5 * time.Second)
	st := srv.Stats()
	for st.Delivered != 10 || st.Batches == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("delivery counters never settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
		st = srv.Stats()
	}
	if st.Subscribers != 1 || st.Sessions != 1 || st.Tenants != 1 {
		t.Errorf("registry shape: %+v", st)
	}
	if st.BytesOut == 0 {
		t.Errorf("delivery counters: %+v", st)
	}
	sub.Close()
	deadline = time.Now().Add(5 * time.Second)
	for srv.Stats().Subscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber not deregistered: %+v", srv.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestParseShedPolicy(t *testing.T) {
	if p, err := ParseShedPolicy("drop-oldest"); err != nil || p != ShedDropOldest {
		t.Errorf("drop-oldest: %v %v", p, err)
	}
	if p, err := ParseShedPolicy(""); err != nil || p != ShedDropOldest {
		t.Errorf("default: %v %v", p, err)
	}
	if p, err := ParseShedPolicy("disconnect"); err != nil || p != ShedDisconnect {
		t.Errorf("disconnect: %v %v", p, err)
	}
	if _, err := ParseShedPolicy("yolo"); err == nil {
		t.Error("bad policy accepted")
	}
	if ShedDropOldest.String() != "drop-oldest" || ShedDisconnect.String() != "disconnect" {
		t.Error("String() names drifted")
	}
}

// --- Shared encoding -----------------------------------------------------

// waitStats polls the server's counters until settled accepts them: a
// delivery is counted after its socket write returns, so a client can
// hold an entry before the counters have moved.
func waitStats(t *testing.T, srv *Server, settled func(FanoutStats) bool) FanoutStats {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st := srv.Stats()
		if settled(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("counters never settled: %+v", st)
		}
	}
}

// collect reads sub until n entries have arrived.
func collect(t *testing.T, sub *Subscription, n int) []Entry {
	t.Helper()
	var got []Entry
	for ev := range sub.C {
		if ev.Kind == EventEntry {
			if got = append(got, ev.Entry); len(got) == n {
				return got
			}
		}
	}
	t.Fatalf("stream ended after %d of %d entries: %v", len(got), n, sub.Err())
	return nil
}

// TestEncodeCacheHitsAcrossSubscribers pins what the counter means: an
// entry delivered from the pump's one encoding counts, so N entries
// published to two live subscribers count 2N, and a replay of the same
// range — encoded by the replaying session itself — counts none.
func TestEncodeCacheHitsAcrossSubscribers(t *testing.T) {
	t.Parallel()
	topic, addr, srv := startFeedServer(t, ServerConfig{Heartbeat: 20 * time.Millisecond})
	live := []*bufio.Reader{subscribeLive(t, addr), subscribeLive(t, addr)}

	const entries = 50
	for i := 0; i < entries; i++ {
		topic.Publish(t0.Add(time.Duration(i)*time.Second), fmt.Sprintf("d%d.com", i), []byte("{}"))
	}
	for _, r := range live {
		readTrace(t, r, entries)
	}
	waitStats(t, srv, func(st FanoutStats) bool { return st.EncodeCacheHits == 2*entries })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sub, err := NewClient(addr).Subscribe(ctx, SubscribeOptions{From: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	collect(t, sub, entries)
	st := waitStats(t, srv, func(st FanoutStats) bool { return st.Delivered == 3*entries })
	if st.EncodeCacheHits != 2*entries {
		t.Errorf("a replay moved the counter from %d to %d", 2*entries, st.EncodeCacheHits)
	}
}

// TestLiveSubscribersShareBytes publishes to three live subscribers: the
// two that keep up receive byte-identical entries, and the third,
// throttled into shedding, gets its GAP without disturbing them.
func TestLiveSubscribersShareBytes(t *testing.T) {
	t.Parallel()
	topic, addr, srv := startFeedServer(t, ServerConfig{
		QueueBound: 64, BatchMax: 8, TenantRate: 400, Heartbeat: 20 * time.Millisecond,
	})
	// Every tenant may burst 400 entries, more than are published; only
	// "slow" is throttled, because its burst is spent beforehand.
	subscribeAs := func(tenant string) *bufio.Reader {
		conn, r := rawSession(t, addr)
		fmt.Fprintf(conn, "HELLO %s\nSUBSCRIBE\n", tenant)
		for _, kind := range []string{FrameWelcome, FrameSubscribed, FrameHeartbeat} {
			if f := readFrameLine(t, r); f.Kind != kind {
				t.Fatalf("%s session: got %+v, want %s", tenant, f, kind)
			}
		}
		return r
	}
	// fastSub accumulates the entry objects of one session, in order, cut
	// out of its DATA lines: frame boundaries depend on timing, the
	// entries' bytes must not.
	type fastSub struct {
		r       *bufio.Reader
		objects strings.Builder
		got     int
	}
	readUntil := func(f *fastSub, want int) {
		for f.got < want {
			line, err := f.r.ReadBytes('\n')
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			fr, err := decodeFrame(line[:len(line)-1], nil)
			if err != nil {
				t.Fatalf("decode %q: %v", line, err)
			}
			if fr.Kind != FrameData {
				continue
			}
			f.objects.Write(line[len(dataFramePrefix):bytes.LastIndex(line, []byte(dataFrameNext))])
			f.objects.WriteByte(',')
			f.got += len(fr.Entries)
		}
	}
	fast := []*fastSub{{r: subscribeAs("a")}, {r: subscribeAs("b")}}
	slow := subscribeAs("slow")
	srv.reg.tenant("slow").reserve(400, time.Now())

	// Waves of half a queue, each read by both fast subscribers before the
	// next: they can never overflow, and the slow one, with 64 entries in
	// hand and 64 queued at the very most, must.
	const waves, wave = 10, 32
	for w := 0; w < waves; w++ {
		for i := w * wave; i < (w+1)*wave; i++ {
			topic.Publish(t0, fmt.Sprintf("d%d.com", i), []byte(`{"k":"<v>"}`))
		}
		for _, f := range fast {
			readUntil(f, (w+1)*wave)
		}
	}
	first, second := fast[0].objects.String(), fast[1].objects.String()
	if first != second {
		t.Fatalf("live subscribers of one publish differ:\n%s\n%s", first, second)
	}
	if n := strings.Count(first, `"raw":"{\"k\":\"\u003cv\u003e\"}"`); n != waves*wave {
		t.Fatalf("%d of %d entries kept their escaping: %s", n, waves*wave, first)
	}
	for {
		f := readFrameLine(t, slow)
		if f.Kind == FrameGap {
			if f.Gap.Reason != "shed" {
				t.Fatalf("gap = %+v", f.Gap)
			}
			break
		}
	}
	if st := srv.Stats(); st.Shed == 0 {
		t.Errorf("stats did not count shedding: %+v", st)
	}
}

// TestEventsSurviveBufferReuse holds on to events across many later
// frames: the client decodes every DATA frame into one reused entry
// buffer, and nothing handed out may alias it.
func TestEventsSurviveBufferReuse(t *testing.T) {
	t.Parallel()
	topic, addr, _ := startFeedServer(t, ServerConfig{BatchMax: 4})
	const n = 64
	for i := 0; i < n; i++ {
		topic.Publish(t0.Add(time.Duration(i)*time.Second), fmt.Sprintf("d%d.com", i), []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sub, err := NewClient(addr).Subscribe(ctx, SubscribeOptions{From: 0, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i, e := range collect(t, sub, n) {
		want := Entry{Offset: int64(i), Time: t0.Add(time.Duration(i) * time.Second), Domain: fmt.Sprintf("d%d.com", i), Raw: fmt.Sprintf(`{"i":%d}`, i)}
		if e.Offset != want.Offset || !e.Time.Equal(want.Time) || e.Domain != want.Domain || e.Raw != want.Raw {
			t.Fatalf("entry %d = %+v, want %+v", i, e, want)
		}
	}
}

// TestFanoutHammer runs publishers, live subscribers, a replaying
// subscriber and an unsubscribe together. Under -race it is the check
// that a broadcast's shared encodings are only ever read; without it,
// that every subscriber still sees each offset once, in order, intact.
func TestFanoutHammer(t *testing.T) {
	t.Parallel()
	topic, addr, _ := startFeedServer(t, ServerConfig{QueueBound: 1 << 14, BatchMax: 16})
	const publishers, each = 4, 500
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	check := func(name string, sub *Subscription) error {
		next := int64(0)
		for ev := range sub.C {
			if ev.Kind != EventEntry {
				return fmt.Errorf("%s: unexpected event %+v", name, ev)
			}
			e := ev.Entry
			if e.Offset != next || e.Raw != `{"d":"`+e.Domain+`"}` {
				return fmt.Errorf("%s: entry %+v at position %d", name, e, next)
			}
			if next++; next == publishers*each {
				return nil
			}
		}
		return fmt.Errorf("%s: stream ended at %d: %v", name, next, sub.Err())
	}
	var subs []*Subscription
	for i := 0; i < 3; i++ {
		sub, err := NewClient(addr).Subscribe(ctx, SubscribeOptions{From: 0})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs = append(subs, sub)
	}
	errs := make(chan error, 8)
	for i, sub := range subs {
		go func() { errs <- check(fmt.Sprintf("early %d", i), sub) }()
	}
	var pubs sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < each; i++ {
				d := fmt.Sprintf("p%d-%d.com", p, i)
				topic.Publish(t0, d, []byte(`{"d":"`+d+`"}`))
			}
		}()
	}
	// Mid-stream: one subscriber that leaves, one that replays from 0.
	quitter, err := NewClient(addr).Subscribe(ctx, SubscribeOptions{From: -1})
	if err != nil {
		t.Fatal(err)
	}
	late, err := NewClient(addr).Subscribe(ctx, SubscribeOptions{From: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	go func() { errs <- check("late", late) }()
	quitter.Close()
	pubs.Wait()
	for i := 0; i < len(subs)+1; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestIdleCloseDoesNotWaitOutThePoll times Close on servers with nothing
// to deliver: the pump used to notice shutdown only between 200 ms polls.
// A median of five, so one descheduled close on a loaded runner does not
// fail it.
func TestIdleCloseDoesNotWaitOutThePoll(t *testing.T) {
	var took []time.Duration
	for i := 0; i < 5; i++ {
		srv := NewServer(stream.NewBus().Topic("idle"))
		if _, err := srv.Serve("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond) // let the pump reach its wait
		start := time.Now()
		srv.Close()
		took = append(took, time.Since(start))
	}
	slices.Sort(took)
	if took[2] > 50*time.Millisecond {
		t.Fatalf("median idle Close = %v (all: %v), want under 50ms", took[2], took)
	}
}
