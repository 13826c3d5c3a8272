package feed

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

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

// --- Satellite: subscription lifecycle ----------------------------------

// TestClosedSessionsLeaveNoSubscribers cycles many replaying and
// live-tailing connections and asserts the registry's subscriber count
// returns to zero, once the peers have hung up and again after Close:
// a session that kept its subscription would leak its queue forever.
func TestClosedSessionsLeaveNoSubscribers(t *testing.T) {
	topic := stream.NewBus().Topic("nrd-feed")
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
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().Subscribers != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers after 100 hung-up sessions = %d, want 0", srv.Stats().Subscribers)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Subscribers; got != 0 {
		t.Errorf("subscribers after Close = %d, want 0", got)
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

// liveCursor returns a subscription reading log from offset 0 under
// bound and policy, made live the way a session's is: by a first take
// that finds it caught up.
func liveCursor(t *testing.T, log *encodedLog, bound int, policy ShedPolicy) *subscriber {
	t.Helper()
	sub := newSubscriber(nil, &log.entries, 0, ServerConfig{QueueBound: bound, ShedPolicy: policy, BatchMax: 64})
	if ents, gap, ok, err := sub.take(time.Millisecond); !ok || err != nil || gap != nil || len(ents) != 0 {
		t.Fatalf("first take on an empty log = %d entries, gap %v, ok %v, err %v", len(ents), gap, ok, err)
	}
	return sub
}

// appendOffsets appends entries lo..hi to log, unencoded: the shed rule
// reads only offsets.
func appendOffsets(log *encodedLog, lo, hi int64) {
	for o := lo; o <= hi; o++ {
		log.entries.Append(wireEntry{off: o})
	}
}

// TestQueueShedDeterministic is the slow-subscriber determinism check at
// the cursor level: a fixed bound and a fixed append/take schedule
// produce exactly the same delivered+GAP sequence every run.
func TestQueueShedDeterministic(t *testing.T) {
	run := func() string {
		var log encodedLog
		sub := liveCursor(t, &log, 4, ShedDropOldest)
		var b strings.Builder
		record := func() {
			ents, gap, ok, err := sub.take(time.Millisecond)
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
		appendOffsets(&log, 0, 9) // lag 10: 0..5 shed, 6..9 kept
		record()
		appendOffsets(&log, 10, 12) // lag 3: fits
		record()
		appendOffsets(&log, 13, 29)
		appendOffsets(&log, 30, 31) // lag 19: 13..27 shed, 28..31 kept
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
	var log encodedLog
	sub := liveCursor(t, &log, 2, ShedDisconnect)
	appendOffsets(&log, 0, 2)
	if _, _, ok, err := sub.take(time.Millisecond); ok || !errors.Is(err, ErrSlowConsumer) {
		t.Fatalf("take after overflow: ok=%v err=%v, want closed with ErrSlowConsumer", ok, err)
	}
}

// subscribeLive subscribes over a raw session and returns once the
// subscription is live: its cursor has found nothing new once, so the
// shed rule applies from here on. The subscribed frame alone does not say
// so: entries published before the cursor's first read are a catch-up
// replay, read at the tenant's rate and never shed. The first heartbeat
// comes only after a take found the cursor caught up. The server needs a
// short ServerConfig.Heartbeat for this to be quick.
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
// policy: a cursor more than QueueBound entries behind the head ends the
// session with a structured slow_consumer error frame that says so.
// Deterministic the same way as TestSlowSubscriberShedsWithGap: live
// first, then every publish, then the first read.
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
			if want := "cursor fell more than 4 entries behind the head; reconnect with SUBSCRIBE FROM to resume"; f.Reason != want {
				t.Fatalf("error text = %q, want %q", f.Reason, want)
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
// pump meets the failure, the hole reaches the live cursor through the
// log, and the writer marks it where it falls.
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

// muteListener accepts connections and never writes to them; each
// accepted connection is announced on the returned channel. answer, when
// set, serves the first connection instead: it reads the SUBSCRIBE line,
// answers SUBSCRIBED and hangs up.
func muteListener(t *testing.T, answer bool) (string, <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Room for every connection a test makes, so the accept loop never
	// blocks on an announcement nobody reads.
	accepted := make(chan struct{}, 16)
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for first := true; ; first = false {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if first && answer {
				if _, err := bufio.NewReader(c).ReadString('\n'); err == nil {
					line, _ := encodeFrame(&Frame{Kind: FrameSubscribed})
					c.Write(line)
				}
				c.Close()
			} else {
				mu.Lock()
				conns = append(conns, c)
				mu.Unlock()
			}
			accepted <- struct{}{}
		}
	}()
	return ln.Addr().String(), accepted
}

// TestSubscribeHandshakeHonoursContext subscribes to a server that
// accepts and never answers: Subscribe must give up when its context
// ends, not wait on the handshake read.
func TestSubscribeHandshakeHonoursContext(t *testing.T) {
	t.Parallel()
	addr, _ := muteListener(t, false)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		sub, err := NewClient(addr).Subscribe(ctx, SubscribeOptions{From: 0})
		if sub != nil {
			sub.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Subscribe returned %v, want an error wrapping context.DeadlineExceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Subscribe still blocked 2s into a 200ms context")
	}
}

// TestResumeHandshakeHonoursClose is the resume half: the server answers,
// drops the connection, then accepts the reconnect and never answers it.
// Close must end the resume handshake and close C.
func TestResumeHandshakeHonoursClose(t *testing.T) {
	t.Parallel()
	addr, accepted := muteListener(t, true)
	sub, err := NewClient(addr).Subscribe(context.Background(), SubscribeOptions{
		From: 0, AutoResume: true, ResumeBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-accepted
	select {
	case <-accepted: // the reconnect is in its handshake
	case <-time.After(5 * time.Second):
		t.Fatal("the client never reconnected")
	}
	sub.Close()
	timeout := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-sub.C:
			if !ok {
				if !errors.Is(sub.Err(), ErrStopped) {
					t.Errorf("Err = %v, want ErrStopped", sub.Err())
				}
				return
			}
		case <-timeout:
			t.Fatal("C still open 2s after Close, with the resume handshake unanswered")
		}
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
// entry delivered from the server's one encoding counts, so N entries
// published to two live subscribers count 2N, and a replay of the same
// range, read from the encoded log, counts like a live delivery.
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
	if st.EncodeCacheHits != 3*entries {
		t.Errorf("after a replay of %d entries the counter reads %d, want %d", entries, st.EncodeCacheHits, 3*entries)
	}
}

// readObjects reads DATA frames until want entries have arrived and
// returns each entry's JSON object exactly as it crossed the wire, keyed
// by offset. A GAP or a repeated offset fails the test.
func readObjects(t *testing.T, r *bufio.Reader, want int) map[int64]string {
	t.Helper()
	objects := make(map[int64]string, want)
	for len(objects) < want {
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read after %d of %d entries: %v", len(objects), want, err)
		}
		var f struct {
			Frame   string            `json:"frame"`
			Entries []json.RawMessage `json:"entries"`
		}
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatalf("decode %q: %v", line, err)
		}
		switch f.Frame {
		case FrameHeartbeat:
			continue
		case FrameData:
		default:
			t.Fatalf("unexpected frame %s", line)
		}
		for _, raw := range f.Entries {
			var e Entry
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("entry %s: %v", raw, err)
			}
			if _, dup := objects[e.Offset]; dup {
				t.Fatalf("offset %d delivered twice", e.Offset)
			}
			objects[e.Offset] = string(raw)
		}
	}
	return objects
}

// TestReplayOfBacklogMatchesLive publishes a backlog before Serve and
// more entries while a throttled subscriber is still replaying it. The
// replaying subscriber must receive every offset once, each as the
// reference encoding of its message, and the entries published during
// the replay must reach it and a live subscriber as the same bytes.
func TestReplayOfBacklogMatchesLive(t *testing.T) {
	t.Parallel()
	const backlog, during = 200, 200
	topic := stream.NewBus().Topic("nrd-feed")
	publish := func(i int) {
		d := fmt.Sprintf("d%d.com", i)
		topic.Publish(t0.Add(time.Duration(i)*time.Second), d, []byte(`{"name":"<`+d+`>","n":"\u00e9\n"}`))
	}
	for i := 0; i < backlog; i++ {
		publish(i)
	}
	srv := NewServerConfig(topic, ServerConfig{
		QueueBound: 1 << 14, BatchMax: 16, TenantRate: 1000, Heartbeat: 20 * time.Millisecond,
	})
	addrs, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := addrs.String()

	live := subscribeLive(t, addr)
	// Spend the replaying tenant's burst: at 1000 entries/s its replay of
	// the backlog takes 0.2 s, and the publishes below land inside it.
	conn, replay := rawSession(t, addr)
	fmt.Fprintf(conn, "HELLO replay\n")
	if f := readFrameLine(t, replay); f.Kind != FrameWelcome {
		t.Fatalf("welcome = %+v", f)
	}
	srv.reg.tenant("replay").reserve(1000, time.Now())
	fmt.Fprintf(conn, "SUBSCRIBE FROM 0\n")
	if f := readFrameLine(t, replay); f.Kind != FrameSubscribed {
		t.Fatalf("subscribed = %+v", f)
	}
	first := readObjects(t, replay, 16)
	for i := backlog; i < backlog+during; i++ {
		publish(i)
	}
	replayed := readObjects(t, replay, backlog+during-len(first))
	for off, obj := range first {
		if _, dup := replayed[off]; dup {
			t.Fatalf("offset %d delivered twice", off)
		}
		replayed[off] = obj
	}
	for _, m := range topic.Read(0, backlog+during) {
		want, err := referenceEncodeEntry(Entry{Offset: m.Offset, Time: m.Time, Domain: m.Key, Raw: string(m.Value)})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := replayed[m.Offset]; !ok || got != string(want) {
			t.Fatalf("replayed offset %d = %q, want %s", m.Offset, got, want)
		}
	}
	for off, obj := range readObjects(t, live, during) {
		if off < backlog || replayed[off] != obj {
			t.Fatalf("live offset %d = %s, replayed %s", off, obj, replayed[off])
		}
	}
}

// TestReplayIsNeverShed replays a backlog of 12.5 times QueueBound while
// as many entries again are published: the replaying cursor lags the head
// by far more than the bound, but it has not caught up once, so the shed
// rule does not apply and every offset arrives, with no GAP. The backlog
// is published before Serve, which logs all of it, and the replay runs at
// 2000 entries/s with its burst spent, so it cannot reach the head before
// the publishes that land during it are logged too.
func TestReplayIsNeverShed(t *testing.T) {
	t.Parallel()
	const bound, backlog, during = 16, 200, 200
	topic := stream.NewBus().Topic("nrd-feed")
	for i := 0; i < backlog; i++ {
		topic.Publish(t0, fmt.Sprintf("d%d.com", i), nil)
	}
	srv := NewServerConfig(topic, ServerConfig{QueueBound: bound, BatchMax: 4, TenantRate: 2000})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	conn, r := rawSession(t, addr.String())
	fmt.Fprintf(conn, "HELLO replay\n")
	if f := readFrameLine(t, r); f.Kind != FrameWelcome {
		t.Fatalf("welcome = %+v", f)
	}
	srv.reg.tenant("replay").reserve(2000, time.Now())
	fmt.Fprintf(conn, "SUBSCRIBE FROM 0\n")
	if f := readFrameLine(t, r); f.Kind != FrameSubscribed {
		t.Fatalf("subscribed = %+v", f)
	}
	for next := int64(0); next < backlog+during; {
		f := readFrameLine(t, r)
		switch f.Kind {
		case FrameData:
			if next == 0 {
				for i := backlog; i < backlog+during; i++ {
					topic.Publish(t0, fmt.Sprintf("d%d.com", i), nil)
				}
			}
			for _, e := range f.Entries {
				if e.Offset != next {
					t.Fatalf("offset %d delivered where %d was due", e.Offset, next)
				}
				next++
			}
		case FrameGap:
			t.Fatalf("the replay was shed at offset %d: %+v", next, f.Gap)
		case FrameHeartbeat:
		default:
			t.Fatalf("unexpected frame %+v", f)
		}
	}
	if st := srv.Stats(); st.Shed != 0 || st.Gaps != 0 {
		t.Errorf("a replay was shed: %+v", st)
	}
}

// TestEncodedLogReadsAcrossPages appends batches that straddle page
// boundaries, one entry unencodable, and reads the log back near them:
// a read stops at the head or at its page's end, and every entry keeps
// its offset and its encoding.
func TestEncodedLogReadsAcrossPages(t *testing.T) {
	const n = 2*logPage + 300
	msgs := make([]stream.Message, n)
	for i := range msgs {
		msgs[i] = stream.Message{Offset: int64(i), Time: t0.Add(time.Duration(i) * time.Second), Key: fmt.Sprintf("d%d.com", i)}
	}
	msgs[logPage].Time = poisonTime
	var l encodedLog
	for i := 0; i < n; i += 1000 {
		l.append(msgs[i:min(i+1000, n)])
	}
	if l.entries.Len() != n {
		t.Fatalf("head = %d, want %d", l.entries.Len(), n)
	}
	_, want := encodeBatch(nil, nil, msgs)
	for _, off := range []int64{0, logPage - 5, logPage, 2*logPage - 1, n - 3, n} {
		got := l.entries.Read(off, 256)
		if wantLen := min(256, logPage-off%logPage, n-off); int64(len(got)) != wantLen {
			t.Fatalf("read(%d) returned %d entries, want %d", off, len(got), wantLen)
		}
		for i, e := range got {
			w := want[off+int64(i)]
			if e.off != w.off || (e.enc == nil) != (w.enc == nil) || !bytes.Equal(e.enc, w.enc) {
				t.Fatalf("read(%d)[%d] = {%d %q}, want {%d %q}", off, i, e.off, e.enc, w.off, w.enc)
			}
		}
	}
}

// TestAppendAfterReserveOnlyCopies runs the pump's steady state across
// two page boundaries: after reserve, appending a 16-entry batch only
// copies, into the chunk in use or the spare and into pages reserve has
// already added, so no log storage is allocated between a batch's
// publication and its wake-up, and the reserved pages read back intact.
func TestAppendAfterReserveOnlyCopies(t *testing.T) {
	const batch, n = 16, 2*logPage + 512
	msgs := make([]stream.Message, n)
	for i := range msgs {
		msgs[i] = stream.Message{Offset: int64(i), Time: t0.Add(time.Duration(i) * time.Second), Key: fmt.Sprintf("d%d.com", i)}
	}
	var l encodedLog
	for i := 0; i < n; i += batch {
		l.reserve()
		chunk, spare, pages := unsafe.SliceData(l.chunk), unsafe.SliceData(l.spare), logPages(&l.entries)
		l.append(msgs[i : i+batch])
		if c := unsafe.SliceData(l.chunk); c != chunk && c != spare {
			t.Fatalf("append at offset %d allocated a chunk after reserve", i)
		}
		if logPages(&l.entries) != pages {
			t.Fatalf("append at offset %d added a page after reserve", i)
		}
	}
	_, want := encodeBatch(nil, nil, msgs)
	for _, off := range []int64{logPage - 1, logPage, 2*logPage - 1, 2 * logPage} {
		got := l.entries.Read(off, 1)
		if len(got) != 1 || got[0].off != off || !bytes.Equal(got[0].enc, want[off].enc) {
			t.Fatalf("read(%d) = %+v, want offset %d encoded %q", off, got, off, want[off].enc)
		}
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

// TestCloseBoundsLateDeliveries pins how much a Subscription still
// delivers once Close returns: what C already buffers and the rest of
// the DATA frame being delivered, not every frame the client has read
// ahead. A send into C does not wait on the context while C has room,
// so this is the per-frame context check's test. It closes mid-stream,
// while the consumer keeps C from filling, and repeats that because a
// missing check shows only when the consumer outpaces the delivery loop.
// The entries are published before Serve, so Serve encodes all of them
// into the encoded log and every round's session cursor replays them from
// it: published after Serve, the pump could still be appending them when
// round 0's cursor reaches the head, and a reader at Buffer 8 whose cursor
// then fell more than QueueBound entries behind the head would rightly be
// shed.
func TestCloseBoundsLateDeliveries(t *testing.T) {
	t.Parallel()
	const batchMax, buffer = 4, 8
	topic := stream.NewBus().Topic("nrd-feed")
	for i := 0; i < 10000; i++ {
		topic.Publish(t0, fmt.Sprintf("d%d.com", i), []byte(`{"i":0}`))
	}
	srv := NewServerConfig(topic, ServerConfig{BatchMax: batchMax})
	ln, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := ln.String()
	for round := 0; round < 20; round++ {
		sub, err := NewClient(addr).Subscribe(context.Background(), SubscribeOptions{From: 0, Buffer: buffer})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			if ev, ok := <-sub.C; !ok || ev.Kind != EventEntry {
				t.Fatalf("event %d = %+v, open %v: %v", i, ev, ok, sub.Err())
			}
		}
		sub.Close()
		late := 0
		timeout := time.After(10 * time.Second)
		for open := true; open; {
			select {
			case _, open = <-sub.C:
				if open {
					late++
				}
			case <-timeout:
				t.Fatalf("C still open 10s after Close, %d events later", late)
			}
		}
		if late > buffer+batchMax {
			t.Errorf("round %d: %d events after Close, want at most %d (Buffer + BatchMax)", round, late, buffer+batchMax)
		}
		if !errors.Is(sub.Err(), ErrStopped) {
			t.Errorf("round %d: Err = %v, want ErrStopped", round, sub.Err())
		}
	}
}

// TestFanoutHammer runs publishers, live subscribers, a replaying
// subscriber and an unsubscribe together. Under -race it is the check
// that the session cursors only ever read the encoded log's entries,
// shared by every session, while the pump appends to its pages; without
// it, that every subscriber's cursor still yields each offset once, in
// order, intact.
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
