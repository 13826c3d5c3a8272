package feed

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"darkdns/internal/stream"
)

var t0 = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

func startFeed(t *testing.T) (*stream.Topic, string, func()) {
	t.Helper()
	bus := stream.NewBus()
	topic := bus.Topic("nrd-feed")
	srv := NewServer(topic)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return topic, addr.String(), func() { srv.Close() }
}

// subscribe opens a subscription at from (negative = live tail) and hands
// every entry to fn from a goroutine of its own until the subscription
// ends; the returned channel then carries Subscription.Err.
func subscribe(t *testing.T, ctx context.Context, addr string, from int64, fn func(Entry)) <-chan error {
	t.Helper()
	sub, err := NewClient(addr).Subscribe(ctx, SubscribeOptions{From: from})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for ev := range sub.C {
			if ev.Kind == EventEntry {
				fn(ev.Entry)
			}
		}
		done <- sub.Err()
	}()
	return done
}

func TestReplayFromOffset(t *testing.T) {
	topic, addr, stop := startFeed(t)
	defer stop()
	for i := 0; i < 5; i++ {
		topic.Publish(t0, fmt.Sprintf("d%d.com", i), []byte("{}"))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	var got []Entry
	done := make(chan struct{})
	subscribe(t, ctx, addr, 2, func(e Entry) {
		mu.Lock()
		got = append(got, e)
		if len(got) == 3 {
			close(done)
		}
		mu.Unlock()
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("replay never delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0].Offset != 2 || got[0].Domain != "d2.com" {
		t.Errorf("first replayed: %+v", got[0])
	}
}

func TestLiveTailSkipsHistory(t *testing.T) {
	topic, addr, stop := startFeed(t)
	defer stop()
	topic.Publish(t0, "old.com", nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gotCh := make(chan Entry, 10)
	// Subscribe returns once the server has acknowledged the session, so
	// the next publish is already live for it.
	subscribe(t, ctx, addr, -1, func(e Entry) { gotCh <- e })
	topic.Publish(t0, "new.com", nil)

	select {
	case e := <-gotCh:
		if e.Domain != "new.com" {
			t.Errorf("live entry: %+v (history should be skipped)", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live tail never delivered")
	}
}

func TestBadRequestRejected(t *testing.T) {
	_, addr, stop := startFeed(t)
	defer stop()
	// Offset 0 on an empty topic is a valid subscription that just tails.
	ctx, cancel := context.WithCancel(context.Background())
	done := subscribe(t, ctx, addr, 0, func(Entry) {})
	cancel()
	if err := <-done; err != ErrStopped {
		t.Errorf("tail of an empty topic ended with %v, want ErrStopped", err)
	}
	// Now a malformed command straight over TCP.
	conn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GIMME everything\n")
	buf := make([]byte, 256)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil || n == 0 {
		t.Fatalf("no error response: %v", err)
	}
	if string(buf[:n]) == "" {
		t.Error("empty response to bad command")
	}
}

func TestStreamStopsOnCancel(t *testing.T) {
	_, addr, stop := startFeed(t)
	defer stop()
	ctx, cancel := context.WithCancel(context.Background())
	done := subscribe(t, ctx, addr, -1, func(Entry) {})
	cancel()
	select {
	case err := <-done:
		if err != ErrStopped {
			t.Errorf("subscription ended with %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription did not stop")
	}
}
