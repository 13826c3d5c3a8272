package stream

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

var now = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

func TestPublishPollCommit(t *testing.T) {
	b := NewBus()
	topic := b.Topic("nrd")
	for i := 0; i < 5; i++ {
		off := topic.Publish(now, fmt.Sprintf("k%d", i), []byte{byte(i)})
		if off != int64(i) {
			t.Fatalf("offset = %d, want %d", off, i)
		}
	}
	msgs := topic.Poll("g1", 3)
	if len(msgs) != 3 || msgs[0].Key != "k0" || msgs[2].Key != "k2" {
		t.Fatalf("poll: %+v", msgs)
	}
	// Without commit, poll returns the same window.
	again := topic.Poll("g1", 3)
	if again[0].Offset != 0 {
		t.Error("poll committed implicitly")
	}
	topic.Commit("g1", 3)
	rest := topic.Poll("g1", 10)
	if len(rest) != 2 || rest[0].Key != "k3" {
		t.Fatalf("after commit: %+v", rest)
	}
}

func TestGroupsAreIndependent(t *testing.T) {
	b := NewBus()
	topic := b.Topic("x")
	topic.Publish(now, "a", nil)
	topic.Publish(now, "b", nil)
	topic.Commit("g1", 2)
	if topic.Lag("g1") != 0 {
		t.Errorf("g1 lag = %d", topic.Lag("g1"))
	}
	if topic.Lag("g2") != 2 {
		t.Errorf("g2 lag = %d", topic.Lag("g2"))
	}
	if topic.Committed("g2") != 0 {
		t.Error("g2 committed moved")
	}
}

func TestCommitNeverRegresses(t *testing.T) {
	b := NewBus()
	topic := b.Topic("x")
	topic.Publish(now, "a", nil)
	topic.Commit("g", 1)
	topic.Commit("g", 0)
	if topic.Committed("g") != 1 {
		t.Error("commit regressed")
	}
}

func TestCreateTopicDuplicate(t *testing.T) {
	b := NewBus()
	if _, err := b.CreateTopic("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic("t"); !errors.Is(err, ErrTopicOpen) {
		t.Errorf("want ErrTopicOpen, got %v", err)
	}
}

func TestClosedBusRefusesNewTopics(t *testing.T) {
	b := NewBus()
	b.Close()
	if _, err := b.CreateTopic("t"); !errors.Is(err, ErrClosed) {
		t.Errorf("want ErrClosed, got %v", err)
	}
}

func TestTopicOnClosedBusNeverNil(t *testing.T) {
	b := NewBus()
	b.Close()
	// Historically this lost-race recovery path returned a nil *Topic
	// that callers dereferenced; it must now return a detached topic.
	topic := b.Topic("late")
	if topic == nil {
		t.Fatal("Topic returned nil on closed bus")
	}
	if off := topic.Publish(now, "k", nil); off != 0 {
		t.Fatalf("publish on detached topic: offset %d", off)
	}
	if got := b.Topics(); len(got) != 0 {
		t.Errorf("detached topic registered on closed bus: %v", got)
	}
}

func TestTopicPreClosePersistsAcrossClose(t *testing.T) {
	b := NewBus()
	pre := b.Topic("pre")
	b.Close()
	if got := b.Topic("pre"); got != pre {
		t.Error("existing topic not returned after Close")
	}
}

func TestWaitNextTimeoutDoesNotLeakWaiters(t *testing.T) {
	b := NewBus()
	topic := b.Topic("idle")
	c := NewConsumer(topic, "g", 1)
	for i := 0; i < 10; i++ {
		if _, ok := c.WaitNext(nil, time.Millisecond); ok {
			t.Fatal("unexpected message")
		}
	}
	if n := topic.pendingWaiters(); n != 0 {
		t.Fatalf("leaked %d waiter channels after timeouts", n)
	}
}

// TestWaitNextStops closes the stop channel under a wait that would
// otherwise last an hour: it must return empty-handed at once and, like
// the timeout path, leave no waiter registered.
func TestWaitNextStops(t *testing.T) {
	topic := NewBus().Topic("idle")
	c := NewConsumer(topic, "g", 1)
	stop := make(chan struct{})
	done := make(chan bool, 1)
	go func() {
		_, ok := c.WaitNext(stop, time.Hour)
		done <- ok
	}()
	for deadline := time.Now().Add(5 * time.Second); topic.pendingWaiters() == 0; time.Sleep(time.Millisecond) {
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
	if n := topic.pendingWaiters(); n != 0 {
		t.Fatalf("leaked %d waiter channels after a stop", n)
	}
	// A stop channel already closed does not hide messages that are there.
	topic.Publish(now, "k", nil)
	if msgs, ok := c.WaitNext(stop, time.Hour); !ok || len(msgs) != 1 {
		t.Fatalf("WaitNext with pending messages = %d, %v", len(msgs), ok)
	}
}

func TestTopicsSorted(t *testing.T) {
	b := NewBus()
	b.Topic("zeta")
	b.Topic("alpha")
	got := b.Topics()
	if len(got) != 2 || got[0] != "alpha" {
		t.Errorf("Topics = %v", got)
	}
}

func TestConsumerNextAndDrain(t *testing.T) {
	b := NewBus()
	topic := b.Topic("x")
	for i := 0; i < 10; i++ {
		topic.Publish(now, "", []byte{byte(i)})
	}
	c := NewConsumer(topic, "g", 4)
	msgs, ok := c.Next()
	if !ok || len(msgs) != 4 {
		t.Fatalf("Next: %d msgs ok=%v", len(msgs), ok)
	}
	n := c.Drain(func(Message) {})
	if n != 6 {
		t.Errorf("Drain = %d, want 6", n)
	}
	if _, ok := c.Next(); ok {
		t.Error("Next after drain should be empty")
	}
}

func TestConsumerBatchFloor(t *testing.T) {
	b := NewBus()
	topic := b.Topic("x")
	topic.Publish(now, "", nil)
	c := NewConsumer(topic, "g", 0)
	if msgs, ok := c.Next(); !ok || len(msgs) != 1 {
		t.Error("batch floor of 1 not applied")
	}
}

func TestWaitNextWakesOnPublish(t *testing.T) {
	b := NewBus()
	topic := b.Topic("x")
	c := NewConsumer(topic, "g", 1)
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
	c := NewConsumer(b.Topic("x"), "g", 1)
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
	// Offsets must be dense and unique.
	seen := make(map[int64]bool)
	c := NewConsumer(topic, "g", 100)
	c.Drain(func(m Message) { seen[m.Offset] = true })
	if len(seen) != producers*per {
		t.Fatalf("consumed %d unique offsets", len(seen))
	}
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

func BenchmarkConsumeBatch100(b *testing.B) {
	bus := NewBus()
	topic := bus.Topic("bench")
	for i := 0; i < 100_000; i++ {
		topic.Publish(now, "k", nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewConsumer(topic, fmt.Sprintf("g%d", i), 100)
		c.Drain(func(Message) {})
	}
}

func BenchmarkConsumeBatch1(b *testing.B) {
	bus := NewBus()
	topic := bus.Topic("bench")
	for i := 0; i < 100_000; i++ {
		topic.Publish(now, "k", nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewConsumer(topic, fmt.Sprintf("g%d", i), 1)
		c.Drain(func(Message) {})
	}
}

func TestDropRemovesGroup(t *testing.T) {
	topic := newTopic("t")
	topic.Publish(now, "a", nil)
	topic.Commit("g1", 1)
	topic.Commit("g2", 1)
	if got := topic.Groups(); len(got) != 2 {
		t.Fatalf("groups = %v, want 2", got)
	}
	topic.Drop("g1")
	if got := topic.Groups(); len(got) != 1 || got[0] != "g2" {
		t.Errorf("groups after drop = %v, want [g2]", got)
	}
	topic.Drop("never-registered") // no-op
	if got := topic.Groups(); len(got) != 1 {
		t.Errorf("groups after no-op drop = %v", got)
	}
	// A dropped group restarts from zero, like any unknown group.
	if off := topic.Committed("g1"); off != 0 {
		t.Errorf("dropped group committed = %d, want 0", off)
	}
}

func TestConsumerCloseDropsItsGroup(t *testing.T) {
	topic := newTopic("t")
	topic.Publish(now, "a", nil)
	c := NewConsumer(topic, "conn-1", 8)
	if _, ok := c.Next(); !ok {
		t.Fatal("no batch")
	}
	if got := topic.Groups(); len(got) != 1 {
		t.Fatalf("groups = %v", got)
	}
	c.Close()
	if got := topic.Groups(); len(got) != 0 {
		t.Errorf("groups after Close = %v, want none", got)
	}
}

func TestReadIsGroupless(t *testing.T) {
	topic := newTopic("t")
	for i := 0; i < 5; i++ {
		topic.Publish(now, fmt.Sprintf("k%d", i), nil)
	}
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
	// Read leaves group state untouched.
	if got := topic.Groups(); len(got) != 0 {
		t.Errorf("Read registered groups: %v", got)
	}
}

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
// only when it opens a page, one allocation per PageSize messages, where
// a log kept as one slice allocated every time it grew.
func TestPublishAllocatesPerPage(t *testing.T) {
	topic := newTopic("t")
	value := []byte("v")
	// AllocsPerRun's warm-up publishes the first page, which also makes
	// the page table.
	allocs := testing.AllocsPerRun(3, func() {
		for range PageSize {
			topic.Publish(now, "k", value)
		}
	})
	if allocs > 1 {
		t.Errorf("publishing a page of %d messages allocates %v times, want at most 1", PageSize, allocs)
	}
}

// TestPublishNeverMovesAMessage holds the address of a returned message
// across publishes that open pages: a stored message never moves.
func TestPublishNeverMovesAMessage(t *testing.T) {
	topic := newTopic("t")
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
// consumer group: every offset comes back once and in order, and no
// batch crosses a page end.
func TestReadsStopAtPageEnds(t *testing.T) {
	topic := newTopic("t")
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
	c := NewConsumer(topic, "g", 1000)
	next := int64(0)
	for {
		msgs, ok := c.Next()
		if !ok {
			break
		}
		if int64(len(msgs)) > PageSize-next%PageSize {
			t.Fatalf("Next at %d returned %d messages across a page end", next, len(msgs))
		}
		for _, m := range msgs {
			if m.Offset != next {
				t.Fatalf("Next yielded offset %d, want %d", m.Offset, next)
			}
			next++
		}
	}
	if next != n || topic.Lag("g") != 0 {
		t.Fatalf("consumed %d of %d, lag %d", next, n, topic.Lag("g"))
	}
}

// TestPublishAfterEmptyPollWakes drives the window between a consumer's
// empty poll and its block: a publish that lands there must signal the
// wake channel the poll registered, or the consumer would sleep through
// it until the next publish or its timeout.
func TestPublishAfterEmptyPollWakes(t *testing.T) {
	topic := newTopic("t")
	c := NewConsumer(topic, "g", 4)
	if msgs := topic.pollOrWait(c.group, c.batch, c.wake); msgs != nil {
		t.Fatalf("empty topic polled %d messages", len(msgs))
	}
	topic.Publish(now, "in-the-window", nil)
	if !c.block(nil, time.Second) {
		t.Fatal("a publish between the empty poll and the block did not wake the consumer")
	}
	topic.unwait(c.wake)
	if n := topic.pendingWaiters(); n != 0 {
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
	topic := newTopic("t")
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
			c := NewConsumer(topic, fmt.Sprintf("g%d", g), 64+g*100)
			defer c.Close()
			next := make([]int, producers)
			for off := int64(0); off < producers*per; {
				msgs, ok := c.WaitNext(nil, 5*time.Second)
				if !ok {
					t.Errorf("group %d: WaitNext timed out at offset %d", g, off)
					return
				}
				for _, m := range msgs {
					var p, i int
					fmt.Sscanf(m.Key, "p%d-%d", &p, &i)
					if m.Offset != off || i != next[p] {
						t.Errorf("group %d: offset %d key %s, want offset %d and p%d-%d", g, m.Offset, m.Key, off, p, next[p])
						return
					}
					next[p]++
					off++
				}
			}
		}()
	}
	wg.Wait()
	if n := topic.pendingWaiters(); n != 0 {
		t.Fatalf("%d waiters left registered", n)
	}
}
