package certstream

import (
	"context"
	"sync"
	"testing"
	"time"

	"darkdns/internal/ct"
)

var t0 = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

func TestHubForwardsPrecertsOnly(t *testing.T) {
	hub := NewHub()
	log := ct.NewLog("argon", nil)
	hub.Attach(log, func() time.Time { return t0 })
	var got []Event
	hub.Subscribe(func(ev Event) { got = append(got, ev) })

	log.Append(t0, ct.PreCertificate, "CA", "a.com", nil, t0)
	log.Append(t0, ct.FinalCertificate, "CA", "b.com", nil, t0)
	log.Append(t0, ct.PreCertificate, "CA", "c.com", nil, t0)

	if len(got) != 2 || got[0].Entry.CN != "a.com" || got[1].Entry.CN != "c.com" {
		t.Fatalf("events: %+v", got)
	}
	if got[0].Log != "argon" {
		t.Errorf("log name: %q", got[0].Log)
	}
}

func TestHubUnsubscribe(t *testing.T) {
	hub := NewHub()
	log := ct.NewLog("x", nil)
	hub.Attach(log, func() time.Time { return t0 })
	n := 0
	cancel := hub.Subscribe(func(Event) { n++ })
	log.Append(t0, ct.PreCertificate, "CA", "a.com", nil, t0)
	cancel()
	log.Append(t0, ct.PreCertificate, "CA", "b.com", nil, t0)
	if n != 1 {
		t.Errorf("n = %d, want 1", n)
	}
}

func TestHubSeenTimestampUsesClock(t *testing.T) {
	hub := NewHub()
	log := ct.NewLog("x", nil)
	now := t0
	hub.Attach(log, func() time.Time { return now })
	var seen time.Time
	hub.Subscribe(func(ev Event) { seen = ev.Seen })
	now = t0.Add(42 * time.Minute)
	log.Append(now, ct.PreCertificate, "CA", "a.com", nil, now)
	if !seen.Equal(t0.Add(42 * time.Minute)) {
		t.Errorf("Seen = %v", seen)
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	hub := NewHub()
	log := ct.NewLog("argon", nil)
	hub.Attach(log, time.Now)
	srv := NewServer(hub)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var got []string
	ready := make(chan struct{}, 16)
	go NewClient(addr.String()).Run(ctx, func(ev Event) {
		mu.Lock()
		got = append(got, ev.Entry.CN)
		mu.Unlock()
		ready <- struct{}{}
	})

	// Give the client a moment to connect, then publish.
	deadline := time.After(5 * time.Second)
	for i := 0; ; i++ {
		time.Sleep(20 * time.Millisecond)
		log.Append(time.Now(), ct.PreCertificate, "CA", "stream.com", nil, time.Now())
		select {
		case <-ready:
		case <-deadline:
			t.Fatal("client never received an event")
		default:
			if i > 100 {
				t.Fatal("client never received an event")
			}
			continue
		}
		break
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 || got[0] != "stream.com" {
		t.Fatalf("got %v", got)
	}
}

func TestClientStopsOnContextCancel(t *testing.T) {
	hub := NewHub()
	srv := NewServer(hub)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- NewClient(addr.String()).Run(ctx, func(Event) {}) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != ErrStopped {
			t.Errorf("Run returned %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not stop")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(NewHub())
	if _, err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHubPollOverHTTP(t *testing.T) {
	// Full aggregator chain: CT log → RFC 6962 HTTP API → hub poller →
	// subscribers, exactly how real Certstream feeds are built.
	log := ct.NewLog("argon", nil)
	for i := 0; i < 3; i++ {
		log.Append(t0, ct.PreCertificate, "CA", "seed.com", nil, t0)
	}
	log.Append(t0, ct.FinalCertificate, "CA", "final.com", nil, t0)
	srv := ct.NewServer(log, time.Now)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hub := NewHub()
	var mu sync.Mutex
	var got []string
	done := make(chan struct{})
	hub.Subscribe(func(ev Event) {
		mu.Lock()
		got = append(got, ev.Entry.CN)
		if len(got) == 4 {
			close(done)
		}
		mu.Unlock()
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go hub.Poll(ctx, "argon", ct.NewClient("http://"+addr.String()), 0, 10*time.Millisecond)

	time.Sleep(50 * time.Millisecond)
	log.Append(t0, ct.PreCertificate, "CA", "live.com", nil, t0)

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("poller never delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	// The final certificate must be filtered (PrecertOnly); 3 seeds + 1
	// live precert remain.
	for _, cn := range got {
		if cn == "final.com" {
			t.Error("final certificate leaked through PrecertOnly hub")
		}
	}
	if got[len(got)-1] != "live.com" {
		t.Errorf("live entry missing: %v", got)
	}
}

func TestSlowClientDropsNotBlocks(t *testing.T) {
	hub := NewHub()
	log := ct.NewLog("x", nil)
	hub.Attach(log, time.Now)
	srv := NewServer(hub)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Connect but never read.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go NewClient(addr.String()).Run(ctx, func(Event) {
		time.Sleep(time.Hour) // wedge the consumer
	})
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	for i := 0; i < 5000; i++ {
		log.Append(time.Now(), ct.PreCertificate, "CA", "flood.com", nil, time.Now())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("publishing blocked on slow client: %v", elapsed)
	}
}
