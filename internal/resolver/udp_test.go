package resolver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darkdns/internal/dnsmsg"
	"darkdns/internal/simclock"
)

// udpResponder runs a scripted UDP DNS endpoint. The script function
// receives each query and returns zero or more datagrams to send back.
func udpResponder(t *testing.T, script func(q *dnsmsg.Message) [][]byte) string {
	t.Helper()
	return udpEndpoint(t, func(q *dnsmsg.Message, from net.Addr, send func(to net.Addr, wire []byte)) {
		for _, resp := range script(q) {
			send(from, resp)
		}
	})
}

// udpEndpoint is udpResponder for scripts that answer later, or answer a
// socket other than the one the query at hand came from: the script gets
// each query's source and a send function. It runs on one goroutine.
func udpEndpoint(t *testing.T, script func(q *dnsmsg.Message, from net.Addr, send func(to net.Addr, wire []byte))) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	send := func(to net.Addr, wire []byte) { pc.WriteTo(wire, to) }
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, raddr, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			q, err := dnsmsg.Unpack(buf[:n])
			if err != nil {
				continue
			}
			script(q, raddr, send)
		}
	}()
	return pc.LocalAddr().String()
}

func answer(q *dnsmsg.Message, addr string) []byte {
	r := q.Reply()
	r.Answers = []dnsmsg.Record{{
		Name: q.Questions[0].Name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN,
		TTL: 60, A: netip.MustParseAddr(addr),
	}}
	wire, _ := r.Pack()
	return wire
}

func TestUDPExchangerHappyPath(t *testing.T) {
	addr := udpResponder(t, func(q *dnsmsg.Message) [][]byte {
		return [][]byte{answer(q, "192.0.2.1")}
	})
	ex := &UDPExchanger{Addr: addr, Timeout: 2 * time.Second}
	resp, err := ex.Exchange(context.Background(), dnsmsg.NewQuery(99, "x.com", dnsmsg.TypeA))
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("exchange: %+v, %v", resp, err)
	}
	if resp.Header.ID != 99 {
		t.Errorf("ID = %d", resp.Header.ID)
	}
}

func TestUDPExchangerSkipsGarbageAndWrongID(t *testing.T) {
	var onlyForged atomic.Bool
	addr := udpResponder(t, func(q *dnsmsg.Message) [][]byte {
		// Garbage first, then a response with the wrong transaction ID,
		// then one with the right ID but another name's question and
		// records — a late answer to an earlier query whose hashed ID
		// collides, or an off-path spoof — then the real answer: the
		// client must skip the first three.
		wrong := q.Reply()
		wrong.Header.ID = q.Header.ID + 1
		wrongWire, _ := wrong.Pack()
		forged := answer(dnsmsg.NewQuery(q.Header.ID, "victim.com", q.Questions[0].Type), "192.0.2.66")
		if onlyForged.Load() {
			return [][]byte{forged}
		}
		return [][]byte{{0xde, 0xad, 0xbe}, wrongWire, forged, answer(q, "192.0.2.7")}
	})
	ex := &UDPExchanger{Addr: addr, Timeout: 2 * time.Second}
	defer ex.Close()
	resp, err := ex.Exchange(context.Background(), dnsmsg.NewQuery(7, "x.com", dnsmsg.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].A.String() != "192.0.2.7" || resp.Questions[0].Name != "x.com" {
		t.Fatalf("answer: %+v", resp)
	}

	// A server that only ever echoes the ID over someone else's question
	// is answering badly, not answering: the lookup fails as
	// ErrBadResponse and the forged records reach no cache.
	onlyForged.Store(true)
	quick := &UDPExchanger{Addr: addr, Timeout: 50 * time.Millisecond}
	defer quick.Close()
	r := New(Config{}, simclock.Real{}, quick, nil)
	if recs, err := r.Lookup(context.Background(), "y.com", dnsmsg.TypeA); !errors.Is(err, ErrBadResponse) {
		t.Fatalf("lookup answered by a forged question: %v, %v (want ErrBadResponse)", recs, err)
	}
	if n := r.CacheStats().Entries; n != 0 {
		t.Errorf("%d cache entries after a forged answer", n)
	}
}

func TestUDPExchangerTimesOut(t *testing.T) {
	addr := udpResponder(t, func(*dnsmsg.Message) [][]byte { return nil }) // mute
	ex := &UDPExchanger{Addr: addr, Timeout: 50 * time.Millisecond, Retries: 1}
	start := time.Now()
	_, err := ex.Exchange(context.Background(), dnsmsg.NewQuery(1, "x.com", dnsmsg.TypeA))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond || elapsed > 3*time.Second {
		t.Errorf("2 attempts à 50ms took %v", elapsed)
	}
}

func TestUDPExchangerRetriesAfterDrop(t *testing.T) {
	var calls atomic.Int32 // written on the responder goroutine, read here
	addr := udpResponder(t, func(q *dnsmsg.Message) [][]byte {
		if calls.Add(1) == 1 {
			return nil // drop the first query
		}
		return [][]byte{answer(q, "192.0.2.3")}
	})
	ex := &UDPExchanger{Addr: addr, Timeout: 100 * time.Millisecond, Retries: 2}
	resp, err := ex.Exchange(context.Background(), dnsmsg.NewQuery(2, "x.com", dnsmsg.TypeA))
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatal("no answer after retry")
	}
	if n := calls.Load(); n < 2 {
		t.Errorf("server saw %d queries, want ≥2", n)
	}
}

func TestUDPExchangerContextCancel(t *testing.T) {
	addr := udpResponder(t, func(*dnsmsg.Message) [][]byte { return nil })
	ex := &UDPExchanger{Addr: addr, Timeout: 5 * time.Second, Retries: 5}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := ex.Exchange(ctx, dnsmsg.NewQuery(3, "x.com", dnsmsg.TypeA)); err == nil {
		t.Fatal("cancelled exchange succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Error("context deadline not honoured")
	}
}

func TestUDPExchangerUnreachable(t *testing.T) {
	ex := &UDPExchanger{Addr: "127.0.0.1:1", Timeout: 100 * time.Millisecond}
	if _, err := ex.Exchange(context.Background(), dnsmsg.NewQuery(4, "x.com", dnsmsg.TypeA)); err == nil {
		t.Skip("kernel did not report ICMP refusal; environment-dependent")
	}
}

func TestExchangerFunc(t *testing.T) {
	called := false
	f := ExchangerFunc(func(_ context.Context, m *dnsmsg.Message) (*dnsmsg.Message, error) {
		called = true
		return m.Reply(), nil
	})
	if _, err := f.Exchange(context.Background(), dnsmsg.NewQuery(1, "x.com", dnsmsg.TypeA)); err != nil || !called {
		t.Fatal("adapter broken")
	}
}

// batchOf builds one query per name; id(i) is name i's transaction ID.
func batchOf(names []string, id func(i int) uint16) []*dnsmsg.Message {
	msgs := make([]*dnsmsg.Message, len(names))
	for i, n := range names {
		msgs[i] = dnsmsg.NewQuery(id(i), n, dnsmsg.TypeA)
	}
	return msgs
}

// wantAnswered fails unless slot i holds an answer to msgs[i]'s question.
func wantAnswered(t *testing.T, msgs, resps []*dnsmsg.Message, errs []error, i int) {
	t.Helper()
	if errs[i] != nil || resps[i] == nil {
		t.Errorf("slot %d (%s): %v, %v", i, msgs[i].Questions[0].Name, resps[i], errs[i])
		return
	}
	if got, want := resps[i].Questions[0].Name, msgs[i].Questions[0].Name; got != want || len(resps[i].Answers) != 1 {
		t.Errorf("slot %d: answer to %q with %d records, asked %q", i, got, len(resps[i].Answers), want)
	}
}

// awaitGoroutines waits for the goroutine count to fall back to baseline.
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExchangeBatchSharedTransactionID: queries of one batch whose IDs
// collide must all be outstanding at once — on different pooled sockets,
// and on a one-shot socket once the pool is exhausted — and each gets the
// answer to its own question. The server holds every answer until the
// whole batch has arrived, so the IDs really are outstanding together.
func TestExchangeBatchSharedTransactionID(t *testing.T) {
	for _, conns := range []int{1, 2} {
		names := []string{"a.com", "b.com", "c.com", "d.com"}
		type held struct {
			from net.Addr
			wire []byte
		}
		var hold []held
		addr := udpEndpoint(t, func(q *dnsmsg.Message, from net.Addr, send func(net.Addr, []byte)) {
			hold = append(hold, held{from, answer(q, "192.0.2.1")})
			if len(hold) == len(names) {
				for _, h := range hold {
					send(h.from, h.wire)
				}
				hold = nil
			}
		})
		baseline := runtime.NumGoroutine()
		ex := &UDPExchanger{Addr: addr, Timeout: 2 * time.Second, Conns: conns}
		msgs := batchOf(names, func(int) uint16 { return 7 })
		resps, errs := ex.ExchangeBatch(context.Background(), msgs)
		for i := range msgs {
			wantAnswered(t, msgs, resps, errs, i)
			if resps[i] != nil && resps[i].Header.ID != 7 {
				t.Errorf("conns=%d slot %d: ID %d", conns, i, resps[i].Header.ID)
			}
		}
		// Pooled and one-shot readers alike are gone once Close returns.
		if err := ex.Close(); err != nil {
			t.Error(err)
		}
		awaitGoroutines(t, baseline)
		if _, err := ex.Exchange(context.Background(), msgs[0]); !errors.Is(err, ErrDial) {
			t.Errorf("exchange on a closed exchanger: %v", err)
		}
	}
}

// TestExchangeBatchRetriesOnlyTheDropped: a server that drops the first
// datagram of 3 of a batch's 48 queries sees exactly those 3 again, under
// AttemptID(base, 1); the other 45 are asked once.
func TestExchangeBatchRetriesOnlyTheDropped(t *testing.T) {
	names := make([]string, 48)
	for i := range names {
		names[i] = fmt.Sprintf("d%02d.com", i)
	}
	dropped := map[string]bool{names[5]: true, names[17]: true, names[40]: true}
	var mu sync.Mutex
	seen := map[string][]uint16{}
	addr := udpResponder(t, func(q *dnsmsg.Message) [][]byte {
		name := q.Questions[0].Name
		mu.Lock()
		seen[name] = append(seen[name], q.Header.ID)
		first := len(seen[name]) == 1
		mu.Unlock()
		if first && dropped[name] {
			return nil
		}
		return [][]byte{answer(q, "192.0.2.4")}
	})
	ex := &UDPExchanger{Addr: addr, Timeout: 100 * time.Millisecond, Retries: 2, Conns: 2}
	defer ex.Close()
	base := func(i int) uint16 { return uint16(1000 + i) }
	msgs := batchOf(names, base)
	resps, errs := ex.ExchangeBatch(context.Background(), msgs)
	mu.Lock()
	defer mu.Unlock()
	for i, name := range names {
		wantAnswered(t, msgs, resps, errs, i)
		want := []uint16{base(i)}
		if dropped[name] {
			want = append(want, AttemptID(base(i), 1))
		}
		if !slices.Equal(seen[name], want) {
			t.Errorf("%s: server saw IDs %v, want %v", name, seen[name], want)
		}
		if msgs[i].Header.ID != base(i) {
			t.Errorf("%s: the caller's message now carries ID %d", name, msgs[i].Header.ID)
		}
	}
}

// pendingOn counts the queries outstanding on the exchanger's pool.
func pendingOn(u *UDPExchanger) int {
	u.mu.Lock()
	defer u.mu.Unlock()
	n := 0
	for _, c := range u.pool {
		if c != nil {
			c.mu.Lock()
			n += len(c.pending)
			c.mu.Unlock()
		}
	}
	return n
}

// TestExchangeBatchSocketDeath: a socket that dies under a batch fails
// the slots pending on it with ErrDial at once, not after the timeout,
// and the next batch dials a replacement.
func TestExchangeBatchSocketDeath(t *testing.T) {
	var mute atomic.Bool
	mute.Store(true)
	addr := udpResponder(t, func(q *dnsmsg.Message) [][]byte {
		if mute.Load() {
			return nil
		}
		return [][]byte{answer(q, "192.0.2.5")}
	})
	ex := &UDPExchanger{Addr: addr, Timeout: 30 * time.Second, Conns: 1}
	defer ex.Close()
	msgs := batchOf([]string{"a.com", "b.com", "c.com", "d.com"}, func(i int) uint16 { return uint16(i + 1) })

	type outcome struct {
		resps []*dnsmsg.Message
		errs  []error
	}
	done := make(chan outcome, 1)
	go func() {
		resps, errs := ex.ExchangeBatch(context.Background(), msgs)
		done <- outcome{resps, errs}
	}()
	for pendingOn(ex) < len(msgs) {
		runtime.Gosched()
	}
	ex.mu.Lock()
	victim := ex.pool[0]
	ex.mu.Unlock()
	victim.conn.Close()
	out := <-done
	for i, err := range out.errs {
		if !errors.Is(err, ErrDial) || out.resps[i] != nil {
			t.Errorf("slot %d on the dead socket: %v, %v (want ErrDial)", i, out.resps[i], err)
		}
	}

	mute.Store(false)
	resps, errs := ex.ExchangeBatch(context.Background(), msgs)
	for i := range msgs {
		wantAnswered(t, msgs, resps, errs, i)
	}
	ex.mu.Lock()
	replaced := ex.pool[0] != victim
	ex.mu.Unlock()
	if !replaced {
		t.Error("the dead socket is still pooled")
	}
}

// TestExchangeBatchContextCancelMidRound: cancellation ends the round at
// once; slots answered before it keep their answers, every other slot
// carries the wrapped context error, and nothing stays registered.
func TestExchangeBatchContextCancelMidRound(t *testing.T) {
	names := []string{"ok0.com", "mute0.com", "ok1.com", "mute1.com", "ok2.com", "mute2.com", "ok3.com"}
	var arrived atomic.Int32
	addr := udpResponder(t, func(q *dnsmsg.Message) [][]byte {
		defer arrived.Add(1)
		if strings.HasPrefix(q.Questions[0].Name, "mute") {
			return nil
		}
		return [][]byte{answer(q, "192.0.2.6")}
	})
	ex := &UDPExchanger{Addr: addr, Timeout: 30 * time.Second, Retries: 3, Conns: 2}
	defer ex.Close()
	msgs := batchOf(names, func(i int) uint16 { return uint16(i + 1) })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// Every query has reached the server and every answer it sent has
		// been delivered: only the three muted queries are outstanding.
		for arrived.Load() < int32(len(names)) || pendingOn(ex) != 3 {
			runtime.Gosched()
		}
		cancel()
	}()
	resps, errs := ex.ExchangeBatch(ctx, msgs)
	for i, name := range names {
		if strings.HasPrefix(name, "ok") {
			wantAnswered(t, msgs, resps, errs, i)
		} else if !errors.Is(errs[i], context.Canceled) || resps[i] != nil {
			t.Errorf("%s: %v, %v (want the context's error)", name, resps[i], errs[i])
		}
	}
	if n := pendingOn(ex); n != 0 {
		t.Errorf("%d queries still registered after the batch returned", n)
	}
}
