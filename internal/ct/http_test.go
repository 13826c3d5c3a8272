package ct

import (
	"context"
	"sync"
	"testing"
	"time"
)

func startHTTP(t *testing.T, l *Log) *Client {
	t.Helper()
	srv := NewServer(l, func() time.Time { return t0 })
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return NewClient("http://" + addr.String())
}

func TestHTTPGetSTH(t *testing.T) {
	l := buildLog(20)
	c := startHTTP(t, l)
	sth, err := c.GetSTH(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sth.TreeSize != 20 {
		t.Errorf("tree size = %d", sth.TreeSize)
	}
	if !l.VerifySTH(sth) {
		t.Error("STH fetched over HTTP failed signature verification")
	}
}

func TestHTTPGetEntries(t *testing.T) {
	l := buildLog(30)
	c := startHTTP(t, l)
	entries, err := c.GetEntries(context.Background(), 10, 19)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 || entries[0].Index != 10 || entries[9].Index != 19 {
		t.Fatalf("entries: %d, first %d", len(entries), entries[0].Index)
	}
	// Past the end: empty, not an error.
	entries, err = c.GetEntries(context.Background(), 100, 110)
	if err != nil || len(entries) != 0 {
		t.Errorf("past-end: %d entries, %v", len(entries), err)
	}
	// Clamped at the head.
	entries, err = c.GetEntries(context.Background(), 25, 99)
	if err != nil || len(entries) != 5 {
		t.Errorf("clamp: %d entries, %v", len(entries), err)
	}
}

func TestHTTPGetEntriesRangeCap(t *testing.T) {
	l := buildLog(600)
	c := startHTTP(t, l)
	entries, err := c.GetEntries(context.Background(), 0, 599)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 256 {
		t.Errorf("range cap: got %d entries, want 256", len(entries))
	}
}

func TestHTTPConsistencyVerifies(t *testing.T) {
	l := buildLog(40)
	c := startHTTP(t, l)
	proof, err := c.GetConsistency(context.Background(), 13, 40)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := rootAt(l, 13)
	second, _ := rootAt(l, 40)
	if !VerifyConsistency(first, second, proof) {
		t.Error("HTTP-fetched consistency proof failed verification")
	}
	if _, err := c.GetConsistency(context.Background(), 50, 40); err == nil {
		t.Error("inverted range should fail")
	}
}

func TestHTTPTailFollowsGrowth(t *testing.T) {
	l := buildLog(5)
	c := startHTTP(t, l)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	var got []int64
	done := make(chan struct{})
	go c.Tail(ctx, 0, 10*time.Millisecond, func(e Entry) {
		mu.Lock()
		got = append(got, e.Index)
		if len(got) == 8 {
			close(done)
		}
		mu.Unlock()
	})
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 3; i++ {
		l.Append(t0, PreCertificate, "CA", "late.com", nil, t0)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tail never caught up")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, idx := range got {
		if idx != int64(i) {
			t.Fatalf("tail order broken: %v", got)
		}
	}
}

func TestHTTPBadRequests(t *testing.T) {
	l := buildLog(5)
	c := startHTTP(t, l)
	if _, err := c.GetEntries(context.Background(), -1, 2); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := c.GetEntries(context.Background(), 5, 2); err == nil {
		t.Error("inverted range accepted")
	}
}
