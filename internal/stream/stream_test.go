package stream

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

var now = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

// TestPublishPollCommit publishes five messages, checks the offsets
// Publish returns, and polls them back: a Read returns the same window
// until the reader commits to a later offset by reading from it.
func TestPublishPollCommit(t *testing.T) {
	topic := NewBus().Topic("nrd")
	for i := 0; i < 5; i++ {
		if off := topic.Publish(now, fmt.Sprintf("k%d", i), []byte{byte(i)}); off != int64(i) {
			t.Fatalf("offset = %d, want %d", off, i)
		}
	}
	msgs := topic.Read(0, 3)
	if len(msgs) != 3 || msgs[0].Key != "k0" || msgs[2].Key != "k2" {
		t.Fatalf("poll: %+v", msgs)
	}
	if again := topic.Read(0, 3); again[0].Offset != 0 {
		t.Error("Read moved a position it does not keep")
	}
	rest := topic.Read(3, 10)
	if len(rest) != 2 || rest[0].Key != "k3" {
		t.Fatalf("after commit: %+v", rest)
	}
}

// TestReadIsGroupless reads by offset alone: a window from the middle, a
// negative from clamped to the start, nothing past the head or for max 0,
// and no read moves the offset a Consumer keeps.
func TestReadIsGroupless(t *testing.T) {
	topic := NewBus().Topic("t")
	for i := 0; i < 5; i++ {
		topic.Publish(now, fmt.Sprintf("k%d", i), nil)
	}
	c := NewConsumer(topic, 1, 1)
	msgs := topic.Read(2, 2)
	if len(msgs) != 2 || msgs[0].Offset != 2 || msgs[1].Offset != 3 {
		t.Fatalf("Read(2,2) = %+v", msgs)
	}
	if msgs := topic.Read(-7, 3); len(msgs) != 3 || msgs[0].Offset != 0 {
		t.Errorf("negative from should clamp to 0: %+v", msgs)
	}
	if msgs := topic.Read(5, 10); msgs != nil {
		t.Errorf("Read past head = %+v, want nil", msgs)
	}
	if msgs := topic.Read(0, 0); msgs != nil {
		t.Errorf("Read with max 0 = %+v, want nil", msgs)
	}
	if msgs, ok := c.WaitNext(nil, time.Second); !ok || msgs[0].Offset != 1 {
		t.Errorf("Read moved a consumer's offset: %+v", msgs)
	}
}

// TestTopicReturnsTheSameTopic holds Bus.Topic to one topic per name: a
// second call, from any goroutine, returns the topic the first made.
func TestTopicReturnsTheSameTopic(t *testing.T) {
	b := NewBus()
	first := b.Topic("nrd")
	got := make([]*Topic, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = b.Topic("nrd")
		}()
	}
	wg.Wait()
	for i, topic := range got {
		if topic != first {
			t.Fatalf("call %d returned another topic", i)
		}
	}
	if other := b.Topic("other"); other == first || b.Topic("other") != other {
		t.Errorf("Topic(%q) is not one topic of its own", "other")
	}
}

func TestWaitNextTimeoutDoesNotLeakWaiters(t *testing.T) {
	b := NewBus()
	topic := b.Topic("idle")
	c := NewConsumer(topic, 0, 1)
	for i := 0; i < 10; i++ {
		if _, ok := c.WaitNext(nil, time.Millisecond); ok {
			t.Fatal("unexpected message")
		}
	}
	if n := topic.log.pendingWaiters(); n != 0 {
		t.Fatalf("leaked %d waiter channels after timeouts", n)
	}
}

// TestWaitNextStops closes the stop channel under a wait that would
// otherwise last an hour: it must return empty-handed at once and, like
// the timeout path, leave no waiter registered.
func TestWaitNextStops(t *testing.T) {
	topic := NewBus().Topic("idle")
	c := NewConsumer(topic, 0, 1)
	stop := make(chan struct{})
	done := make(chan bool, 1)
	go func() {
		_, ok := c.WaitNext(stop, time.Hour)
		done <- ok
	}()
	for deadline := time.Now().Add(5 * time.Second); topic.log.pendingWaiters() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("WaitNext never registered its waiter")
		}
	}
	close(stop)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("stopped WaitNext returned messages")
		}
	case <-time.After(time.Second):
		t.Fatal("WaitNext outlived its stop channel")
	}
	if n := topic.log.pendingWaiters(); n != 0 {
		t.Fatalf("leaked %d waiter channels after a stop", n)
	}
	// A stop channel already closed does not hide messages that are there.
	topic.Publish(now, "k", nil)
	if msgs, ok := c.WaitNext(stop, time.Hour); !ok || len(msgs) != 1 {
		t.Fatalf("WaitNext with pending messages = %d, %v", len(msgs), ok)
	}
}

// TestConsumerReadsFromItsOffset starts a consumer at offset 3 of ten
// messages with a batch of 4: it reads 3–6, then the remaining three,
// then nothing.
func TestConsumerReadsFromItsOffset(t *testing.T) {
	topic := NewBus().Topic("x")
	for i := 0; i < 10; i++ {
		topic.Publish(now, "", []byte{byte(i)})
	}
	c := NewConsumer(topic, 3, 4)
	for _, want := range [][2]int64{{3, 4}, {7, 3}} {
		msgs, ok := c.WaitNext(nil, time.Second)
		if !ok || int64(len(msgs)) != want[1] || msgs[0].Offset != want[0] {
			t.Fatalf("WaitNext = %d messages from %v, want %d from %d", len(msgs), msgs, want[1], want[0])
		}
	}
	if msgs, ok := c.WaitNext(nil, time.Millisecond); ok {
		t.Errorf("caught-up consumer read %d messages", len(msgs))
	}
	if msgs, _ := NewConsumer(topic, -5, 1).WaitNext(nil, time.Second); len(msgs) != 1 || msgs[0].Offset != 0 {
		t.Errorf("negative from should clamp to 0: %+v", msgs)
	}
}

func TestConsumerBatchFloor(t *testing.T) {
	b := NewBus()
	topic := b.Topic("x")
	topic.Publish(now, "", nil)
	topic.Publish(now, "", nil)
	c := NewConsumer(topic, 0, 0)
	if msgs, ok := c.WaitNext(nil, time.Second); !ok || len(msgs) != 1 {
		t.Error("batch floor of 1 not applied")
	}
}

func TestWaitNextWakesOnPublish(t *testing.T) {
	b := NewBus()
	topic := b.Topic("x")
	c := NewConsumer(topic, 0, 1)
	done := make(chan int, 1)
	go func() {
		msgs, ok := c.WaitNext(nil, 5*time.Second)
		if !ok {
			done <- -1
			return
		}
		done <- int(msgs[0].Offset)
	}()
	time.Sleep(10 * time.Millisecond)
	topic.Publish(now, "wake", nil)
	select {
	case got := <-done:
		if got != 0 {
			t.Fatalf("got offset %d", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitNext never woke")
	}
}

func TestWaitNextTimesOut(t *testing.T) {
	b := NewBus()
	c := NewConsumer(b.Topic("x"), 0, 1)
	start := time.Now()
	if _, ok := c.WaitNext(nil, 20*time.Millisecond); ok {
		t.Fatal("WaitNext returned messages on empty topic")
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("WaitNext returned too early")
	}
}

func TestConcurrentPublishersAndConsumers(t *testing.T) {
	b := NewBus()
	topic := b.Topic("x")
	const producers, per = 8, 250
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				topic.Publish(now, fmt.Sprintf("p%d-%d", p, i), nil)
			}
		}(p)
	}
	wg.Wait()
	if topic.Len() != producers*per {
		t.Fatalf("len = %d", topic.Len())
	}
	// Offsets must be dense and unique; readAll checks both.
	readAll(t, topic, 100)
}

func BenchmarkPublish(b *testing.B) {
	bus := NewBus()
	topic := bus.Topic("bench")
	payload := []byte("example.com,1700000000")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topic.Publish(now, "k", payload)
	}
}

// benchmarkConsume reads a 100 000-message topic from offset 0 to its
// head, batch messages at a time: one op is the whole topic.
func benchmarkConsume(b *testing.B, batch int) {
	topic := NewBus().Topic("bench")
	for i := 0; i < 100_000; i++ {
		topic.Publish(now, "k", nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for msgs := topic.Read(0, batch); len(msgs) > 0; msgs = topic.Read(int64(n), batch) {
			n += len(msgs)
		}
		if n != 100_000 {
			b.Fatalf("read %d messages", n)
		}
	}
}

func BenchmarkConsumeBatch100(b *testing.B) { benchmarkConsume(b, 100) }

func BenchmarkConsumeBatch1(b *testing.B) { benchmarkConsume(b, 1) }

// readAll reads the whole topic with Read, batch messages at a time,
// checking that no read crosses a page end and that every offset comes
// back once, in order.
func readAll(t *testing.T, topic *Topic, batch int) []Message {
	t.Helper()
	var all []Message
	for {
		msgs := topic.Read(int64(len(all)), batch)
		if len(msgs) == 0 {
			break
		}
		off := msgs[0].Offset
		if room := PageSize - off%PageSize; int64(len(msgs)) > room {
			t.Fatalf("Read(%d, %d) returned %d messages across a page end", off, batch, len(msgs))
		}
		for i, m := range msgs {
			if m.Offset != int64(len(all)) {
				t.Fatalf("Read(%d, %d)[%d] has offset %d, want %d", off, batch, i, m.Offset, len(all))
			}
			all = append(all, m)
		}
	}
	if len(all) != topic.Len() {
		t.Fatalf("read %d messages of %d", len(all), topic.Len())
	}
	return all
}

// TestPublishAllocatesPerPage pins the paged log: a publish allocates
// only when it opens a page, one allocation per PageSize messages.
//
// AllocsPerRun counts every allocation in the process and divides by the
// runs as integers, so the runtime's own background allocations (a timer
// heap growing under the scavenger) count against the page. Over 32
// pages they round away unless there are 32 of them, while a second
// allocation per page, or any per publish, still reads 2 or more. A log
// kept as one growing slice allocates less than once a page at this
// size; TestPublishNeverMovesAMessage catches it moving messages.
func TestPublishAllocatesPerPage(t *testing.T) {
	const runs = 32
	topic := NewBus().Topic("t")
	value := []byte("v")
	// AllocsPerRun's warm-up publishes the first page, which also makes
	// the page table, with room for all of them.
	allocs := testing.AllocsPerRun(runs, func() {
		for range PageSize {
			topic.Publish(now, "k", value)
		}
	})
	if pages, n := len(topic.log.pages), topic.Len(); pages != runs+1 || n != (runs+1)*PageSize {
		t.Fatalf("%d publishes opened %d pages, want %d", n, pages, runs+1)
	}
	if allocs > 1 {
		t.Errorf("publishing a page of %d messages allocates %v times, want at most 1", PageSize, allocs)
	}
}

// TestPublishNeverMovesAMessage holds the address of a returned message
// across publishes that open pages: a stored message never moves.
func TestPublishNeverMovesAMessage(t *testing.T) {
	topic := NewBus().Topic("t")
	topic.Publish(now, "first", nil)
	first := &topic.Read(0, 1)[0]
	for i := range 10_000 {
		topic.Publish(now, fmt.Sprintf("k%d", i), nil)
	}
	if again := &topic.Read(0, 1)[0]; again != first {
		t.Fatalf("message 0 moved from %p to %p after 10 000 publishes", first, again)
	}
	if first.Key != "first" || first.Offset != 0 {
		t.Fatalf("message 0 = %+v", *first)
	}
}

// TestReadsStopAtPageEnds reads a topic of three pages and a bit in
// batches that do not divide the page size, with Read and with a
// Consumer: every offset comes back once and in order, and no batch
// crosses a page end.
func TestReadsStopAtPageEnds(t *testing.T) {
	topic := NewBus().Topic("t")
	const n = 3*PageSize + 17
	for i := range n {
		topic.Publish(now, fmt.Sprintf("k%d", i), nil)
	}
	for i, m := range readAll(t, topic, 1000) {
		if m.Key != fmt.Sprintf("k%d", i) {
			t.Fatalf("message %d has key %q", i, m.Key)
		}
	}
	// Read near a boundary returns the rest of the page, then the next.
	if got := topic.Read(PageSize-3, 10); len(got) != 3 || got[2].Offset != PageSize-1 {
		t.Fatalf("Read(PageSize-3, 10) = %d messages", len(got))
	}
	if got := topic.Read(PageSize, 10); len(got) != 10 || got[0].Offset != PageSize {
		t.Fatalf("Read(PageSize, 10) = %d messages", len(got))
	}
	c := NewConsumer(topic, 0, 1000)
	next := int64(0)
	for next < n {
		msgs, ok := c.WaitNext(nil, time.Second)
		if !ok {
			t.Fatalf("WaitNext at %d of %d returned nothing", next, n)
		}
		if int64(len(msgs)) > PageSize-next%PageSize {
			t.Fatalf("WaitNext at %d returned %d messages across a page end", next, len(msgs))
		}
		for _, m := range msgs {
			if m.Offset != next {
				t.Fatalf("WaitNext yielded offset %d, want %d", m.Offset, next)
			}
			next++
		}
	}
	if msgs, ok := c.WaitNext(nil, time.Millisecond); ok {
		t.Fatalf("WaitNext past the head returned %d messages", len(msgs))
	}
}

// TestPublishAfterEmptyPollWakes drives the window between a consumer's
// empty read and its block: a publish that lands there must signal the
// wake channel the read registered, or the consumer would sleep through
// it until the next publish or its timeout.
func TestPublishAfterEmptyPollWakes(t *testing.T) {
	topic := NewBus().Topic("t")
	c := NewConsumer(topic, 0, 4)
	if msgs := topic.log.readOrWait(c.next, c.batch, c.wake); msgs != nil {
		t.Fatalf("empty topic read %d messages", len(msgs))
	}
	topic.Publish(now, "in-the-window", nil)
	if !c.block(nil, time.Second) {
		t.Fatal("a publish between the empty read and the block did not wake the consumer")
	}
	topic.log.unwait(c.wake)
	if n := topic.log.pendingWaiters(); n != 0 {
		t.Fatalf("%d waiters left registered", n)
	}
	if msgs, ok := c.WaitNext(nil, time.Hour); !ok || len(msgs) != 1 || msgs[0].Key != "in-the-window" {
		t.Fatalf("WaitNext = %+v, %v", msgs, ok)
	}
}

// TestConcurrentPublishersAndWaitNext runs four publishers against two
// consumers blocking in WaitNext (run it under -race): each consumer sees
// every offset once, in order, each publisher's messages in the order it
// sent them, and never waits out its timeout while messages are due.
func TestConcurrentPublishersAndWaitNext(t *testing.T) {
	topic := NewBus().Topic("t")
	const producers, per = 4, 2500 // over two pages
	var wg sync.WaitGroup
	for p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				topic.Publish(now, fmt.Sprintf("p%d-%d", p, i), nil)
				if i%500 == 0 {
					time.Sleep(time.Millisecond) // let the consumers catch up and block
				}
			}
		}()
	}
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewConsumer(topic, 0, 64+g*100)
			next := make([]int, producers)
			for off := int64(0); off < producers*per; {
				msgs, ok := c.WaitNext(nil, 5*time.Second)
				if !ok {
					t.Errorf("consumer %d: WaitNext timed out at offset %d", g, off)
					return
				}
				for _, m := range msgs {
					var p, i int
					fmt.Sscanf(m.Key, "p%d-%d", &p, &i)
					if m.Offset != off || i != next[p] {
						t.Errorf("consumer %d: offset %d key %s, want offset %d and p%d-%d", g, m.Offset, m.Key, off, p, next[p])
						return
					}
					next[p]++
					off++
				}
			}
		}()
	}
	wg.Wait()
	if n := topic.log.pendingWaiters(); n != 0 {
		t.Fatalf("%d waiters left registered", n)
	}
}
