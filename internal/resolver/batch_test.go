package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darkdns/internal/dnsmsg"
	"darkdns/internal/simclock"
)

// TestQueryIDDeterministic: the ID derivation is a pure function of
// (seed, name, type, attempt) — no hidden state — and attempt 0 is the
// base ID itself, which is what the UDP transport's retry rotation and
// the happy-path wire tests both rely on.
func TestQueryIDDeterministic(t *testing.T) {
	a := QueryID(7, "Example.COM", dnsmsg.TypeA, 0)
	if b := QueryID(7, "example.com", dnsmsg.TypeA, 0); b != a {
		t.Errorf("canonicalization changed the ID: %d vs %d", a, b)
	}
	if b := QueryID(8, "example.com", dnsmsg.TypeA, 0); b == a {
		t.Error("seed change did not change the ID")
	}
	if b := QueryID(7, "example.com", dnsmsg.TypeAAAA, 0); b == a {
		t.Error("type change did not change the ID")
	}
	if AttemptID(a, 0) != a {
		t.Error("attempt 0 must be the base ID")
	}
	if AttemptID(a, 1) == a || AttemptID(a, 1) == AttemptID(a, 2) {
		t.Error("retry attempts must rotate the ID")
	}
	if QueryID(7, "example.com", dnsmsg.TypeA, 2) != AttemptID(a, 2) {
		t.Error("QueryID(attempt=n) must equal AttemptID(base, n)")
	}
}

// gateExchanger blocks every exchange on release, signalling entered
// first, and counts calls — the instrument for singleflight assertions.
type gateExchanger struct {
	calls   atomic.Int64
	entered chan struct{}
	release chan struct{}
}

func (g *gateExchanger) Exchange(_ context.Context, msg *dnsmsg.Message) (*dnsmsg.Message, error) {
	g.calls.Add(1)
	g.entered <- struct{}{}
	<-g.release
	resp := msg.Reply()
	resp.Answers = []dnsmsg.Record{{
		Name: msg.Questions[0].Name, Type: msg.Questions[0].Type, TTL: 300,
		A: netip.MustParseAddr("192.0.2.1"),
	}}
	return resp, nil
}

// TestSingleflightOneExchangePerExpiredKey: a thundering herd of
// lookups on the same missing (then expired) key must collapse to
// exactly one upstream exchange per expiry — the satellite fix for the
// old double-query, double-counted-miss behaviour.
func TestSingleflightOneExchangePerExpiredKey(t *testing.T) {
	const herd = 16
	ex := &gateExchanger{entered: make(chan struct{}, herd), release: make(chan struct{})}
	r, clk := newTestResolver(ex)

	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if recs, err := r.Lookup(context.Background(), "herd.com", dnsmsg.TypeA); err != nil || len(recs) != 1 {
				t.Errorf("herd lookup: %v %v", recs, err)
			}
		}()
	}
	<-ex.entered // the owning lookup reached the exchanger
	// Every other herd member must join its flight before we let the
	// exchange finish; coalesced counts exactly those joins.
	for r.CacheStats().Coalesced < herd-1 {
		runtime.Gosched()
	}
	close(ex.release)
	wg.Wait()

	if n := ex.calls.Load(); n != 1 {
		t.Fatalf("herd of %d issued %d upstream exchanges, want 1", herd, n)
	}
	cs := r.CacheStats()
	if cs.Misses != 1 || cs.Coalesced != herd-1 {
		t.Errorf("stats: %+v, want 1 miss and %d coalesced", cs, herd-1)
	}

	// Expire the entry (60 s clamp beats the 300 s record TTL): the next
	// lookup is the one exchange the expired key costs.
	clk.Advance(61 * time.Second)
	if _, err := r.Lookup(context.Background(), "herd.com", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if n := ex.calls.Load(); n != 2 {
		t.Fatalf("expired key cost %d exchanges, want exactly 1 more (total 2)", n-1)
	}
}

// batchExchanger records ExchangeBatch call shapes over a scripted
// answer function.
type batchExchanger struct {
	answer  func(*dnsmsg.Message) (*dnsmsg.Message, error)
	batches [][]string // question names per ExchangeBatch call
	singles atomic.Int64
}

func (b *batchExchanger) Exchange(_ context.Context, msg *dnsmsg.Message) (*dnsmsg.Message, error) {
	b.singles.Add(1)
	return b.answer(msg)
}

func (b *batchExchanger) ExchangeBatch(ctx context.Context, msgs []*dnsmsg.Message) ([]*dnsmsg.Message, []error) {
	names := make([]string, len(msgs))
	resps := make([]*dnsmsg.Message, len(msgs))
	errs := make([]error, len(msgs))
	for i, m := range msgs {
		names[i] = m.Questions[0].Name
		resps[i], errs[i] = b.answer(m)
	}
	b.batches = append(b.batches, names)
	return resps, errs
}

func addrAnswer(msg *dnsmsg.Message) (*dnsmsg.Message, error) {
	resp := msg.Reply()
	q := msg.Questions[0]
	if q.Type == dnsmsg.TypeA {
		resp.Answers = []dnsmsg.Record{{Name: q.Name, Type: q.Type, TTL: 60, A: netip.MustParseAddr("192.0.2.9")}}
	}
	return resp, nil
}

// TestLookupBatchDedupAndPipelining: duplicate keys inside one batch
// collapse to a single query, cache hits never reach the wire, and the
// surviving misses travel as one ExchangeBatch call.
func TestLookupBatchDedupAndPipelining(t *testing.T) {
	ex := &batchExchanger{answer: addrAnswer}
	r, _ := newTestResolver(ex)

	// Prime one key so the batch sees a live cache hit.
	if _, err := r.Lookup(context.Background(), "cached.com", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}

	res := r.LookupBatch(context.Background(), []Query{
		{Name: "a.com", Type: dnsmsg.TypeA},
		{Name: "A.com", Type: dnsmsg.TypeA}, // duplicate (canonicalized)
		{Name: "cached.com", Type: dnsmsg.TypeA},
		{Name: "a.com", Type: dnsmsg.TypeAAAA}, // same name, distinct type
		{Name: "b.com", Type: dnsmsg.TypeA},
	})
	for i, want := range []int{1, 1, 1, 0, 1} {
		if res[i].Err != nil || len(res[i].Records) != want {
			t.Errorf("slot %d: %d records, err %v (want %d records)", i, len(res[i].Records), res[i].Err, want)
		}
	}
	if len(ex.batches) != 1 || len(ex.batches[0]) != 3 {
		t.Fatalf("misses should pipeline as one 3-query batch, got %v", ex.batches)
	}
	cs := r.CacheStats()
	// cached.com primed (1 miss) + 3 batch misses; the duplicate slot is
	// answered by its twin's flight, the cached slot is a hit.
	if cs.Misses != 4 || cs.Hits != 1 {
		t.Errorf("stats: %+v, want 4 misses / 1 hit", cs)
	}
}

// TestBatchNegativeCacheAndClampAcrossSimTime: the satellite coverage
// for cache lifetime edges under simulated time — a 300 s record clamps
// to MaxTTL=60 s (hit at 59 s, refetch at 61 s) and an NXDOMAIN entry
// lives exactly NegTTL=30 s — exercised through the batch API so both
// paths share the expiry logic.
func TestBatchNegativeCacheAndClampAcrossSimTime(t *testing.T) {
	ex := &batchExchanger{answer: func(msg *dnsmsg.Message) (*dnsmsg.Message, error) {
		resp := msg.Reply()
		q := msg.Questions[0]
		switch q.Name {
		case "long.com":
			resp.Answers = []dnsmsg.Record{{Name: q.Name, Type: q.Type, TTL: 300, A: netip.MustParseAddr("192.0.2.7")}}
		default:
			resp.Header.RCode = dnsmsg.RCodeNXDomain
		}
		return resp, nil
	}}
	r, clk := newTestResolver(ex) // MaxTTL 60 s, NegTTL 30 s
	lookup := func() (posErr, negErr error) {
		res := r.LookupBatch(context.Background(), []Query{
			{Name: "long.com", Type: dnsmsg.TypeA},
			{Name: "gone.com", Type: dnsmsg.TypeA},
		})
		return res[0].Err, res[1].Err
	}

	if posErr, negErr := lookup(); posErr != nil || !errors.Is(negErr, ErrNXDomain) {
		t.Fatalf("initial: %v / %v", posErr, negErr)
	}
	misses := func() int64 { return r.CacheStats().Misses }
	if m := misses(); m != 2 {
		t.Fatalf("initial misses = %d", m)
	}

	clk.Advance(29 * time.Second) // both entries still live
	lookup()
	if m := misses(); m != 2 {
		t.Errorf("at 29 s both entries must hit (misses %d)", m)
	}

	clk.Advance(30 * time.Second) // 59 s: negative entry (30 s) expired, clamp (60 s) not yet
	if _, negErr := lookup(); !errors.Is(negErr, ErrNXDomain) {
		t.Errorf("negative refetch: %v", negErr)
	}
	if m := misses(); m != 3 {
		t.Errorf("at 59 s only the negative entry refetches (misses %d, want 3)", m)
	}

	clk.Advance(2 * time.Second) // 61 s: the 300 s record's 60 s clamp has
	// expired; the negative entry was refreshed at 59 s and still lives.
	lookup()
	if m := misses(); m != 4 {
		t.Errorf("at 61 s only the clamped record refetches (misses %d, want 4)", m)
	}
}

// TestShardedCacheRaceHammer drives concurrent Lookup, LookupBatch,
// Flush and stats readers over the sharded cache — the satellite race
// hammer; its assertions are weak on purpose, the checker is the race
// detector and the absence of deadlock.
func TestShardedCacheRaceHammer(t *testing.T) {
	ex := ExchangerFunc(func(_ context.Context, msg *dnsmsg.Message) (*dnsmsg.Message, error) {
		resp := msg.Reply()
		q := msg.Questions[0]
		resp.Answers = []dnsmsg.Record{{Name: q.Name, Type: q.Type, TTL: 1, A: netip.MustParseAddr("192.0.2.3")}}
		return resp, nil
	})
	clk := simclock.NewSim(t0)
	r := New(Config{MaxTTL: time.Second}, clk, ex, nil)

	names := make([]string, 32)
	for i := range names {
		names[i] = fmt.Sprintf("d%03d.example", i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 300; i++ {
				// Dwell on each name for a few iterations so lookups
				// between two flushes revisit warm keys.
				name := names[(g*4+i/4)%len(names)]
				switch {
				case i%23 == 0:
					r.Flush()
				case i%5 == 0:
					qs := []Query{
						{Name: name, Type: dnsmsg.TypeA},
						{Name: names[(g+i)%len(names)], Type: dnsmsg.TypeAAAA},
					}
					for j, res := range r.LookupBatch(ctx, qs) {
						if res.Err != nil {
							t.Errorf("batch slot %d: %v", j, res.Err)
						}
					}
				default:
					if _, err := r.Lookup(ctx, name, dnsmsg.TypeA); err != nil {
						t.Errorf("lookup %s: %v", name, err)
					}
				}
				r.CacheStats()
			}
		}(g)
	}
	wg.Wait()
	if cs := r.CacheStats(); cs.Hits == 0 || cs.Misses == 0 {
		t.Errorf("hammer produced degenerate stats: %+v", cs)
	}
}

// TestLanesShedWhenSaturated: with queueing disabled, a lane holding
// its one in-flight slot sheds the next exchange synchronously with
// ErrRateLimited: never block the probe path behind a slow authority.
func TestLanesShedWhenSaturated(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	inner := ExchangerFunc(func(_ context.Context, msg *dnsmsg.Message) (*dnsmsg.Message, error) {
		started <- struct{}{}
		<-release
		return msg.Reply(), nil
	})
	ls := NewLanes(LaneConfig{MaxInflight: 1, MaxQueued: -1}, inner, nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := ls.Exchange(context.Background(), dnsmsg.NewQuery(1, "slow.shop", dnsmsg.TypeNS)); err != nil {
			t.Errorf("admitted exchange failed: %v", err)
		}
	}()
	<-started

	if _, err := ls.Exchange(context.Background(), dnsmsg.NewQuery(2, "other.shop", dnsmsg.TypeNS)); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("saturated lane returned %v, want ErrRateLimited", err)
	}
	close(release)
	wg.Wait()

	stats := ls.LaneStats()
	if len(stats) != 1 || stats[0].Server != "shop" || stats[0].Done != 1 || stats[0].Shed != 1 {
		t.Errorf("lane stats: %+v", stats)
	}
}

// TestLanesBatchShedsOversubscription: a batch larger than a lane's
// in-flight bound must shed the excess synchronously (waiting would
// deadlock on slots the batch itself holds) and still answer the
// admitted subset.
func TestLanesBatchShedsOversubscription(t *testing.T) {
	inner := ExchangerFunc(func(_ context.Context, msg *dnsmsg.Message) (*dnsmsg.Message, error) {
		return msg.Reply(), nil
	})
	ls := NewLanes(LaneConfig{MaxInflight: 2}, inner, nil)

	msgs := make([]*dnsmsg.Message, 5)
	for i := range msgs {
		msgs[i] = dnsmsg.NewQuery(uint16(i+1), fmt.Sprintf("d%d.shop", i), dnsmsg.TypeNS)
	}
	resps, errs := ls.ExchangeBatch(context.Background(), msgs)
	var ok, shed int
	for i := range msgs {
		switch {
		case errs[i] == nil && resps[i] != nil:
			ok++
		case errors.Is(errs[i], ErrRateLimited):
			shed++
		default:
			t.Errorf("slot %d: resp=%v err=%v", i, resps[i], errs[i])
		}
	}
	if ok != 2 || shed != 3 {
		t.Fatalf("admitted %d / shed %d, want 2 / 3", ok, shed)
	}
	// Slots released after the batch: a follow-up exchange is admitted.
	if _, err := ls.Exchange(context.Background(), dnsmsg.NewQuery(9, "later.shop", dnsmsg.TypeNS)); err != nil {
		t.Fatalf("post-batch exchange: %v", err)
	}
}

// TestLocalExchangerFixups: the in-process adapter mirrors dnsserver's
// wire path — transaction ID echo, response bit, question echo — and
// maps a nil handler answer to SERVFAIL.
func TestLocalExchangerFixups(t *testing.T) {
	le := &LocalExchanger{H: handlerFunc(func(q dnsmsg.Question) *dnsmsg.Message {
		if q.Name == "nil.example" {
			return nil
		}
		return &dnsmsg.Message{} // bare answer: adapter must fix it up
	})}
	q := dnsmsg.NewQuery(0xBEEF, "ok.example", dnsmsg.TypeA)
	resp, err := le.Exchange(context.Background(), q)
	if err != nil || resp.Header.ID != 0xBEEF || !resp.Header.Response || len(resp.Questions) != 1 {
		t.Fatalf("fix-ups missing: %+v err=%v", resp, err)
	}
	resp, err = le.Exchange(context.Background(), dnsmsg.NewQuery(7, "nil.example", dnsmsg.TypeA))
	if err != nil || resp.Header.RCode != dnsmsg.RCodeServFail || resp.Header.ID != 7 {
		t.Fatalf("nil handler answer: %+v err=%v", resp, err)
	}

	// Batch over the pool answers positionally.
	le.Workers = 4
	msgs := []*dnsmsg.Message{
		dnsmsg.NewQuery(1, "a.example", dnsmsg.TypeA),
		dnsmsg.NewQuery(2, "nil.example", dnsmsg.TypeA),
		dnsmsg.NewQuery(3, "c.example", dnsmsg.TypeA),
	}
	resps, errs := le.ExchangeBatch(context.Background(), msgs)
	for i := range msgs {
		if errs[i] != nil || resps[i].Header.ID != msgs[i].Header.ID {
			t.Errorf("batch slot %d: id %d err %v", i, resps[i].Header.ID, errs[i])
		}
	}
	if resps[1].Header.RCode != dnsmsg.RCodeServFail {
		t.Error("nil answer in batch must map to SERVFAIL")
	}
}

// handlerFunc adapts a function to Handler.
type handlerFunc func(q dnsmsg.Question) *dnsmsg.Message

func (f handlerFunc) Handle(q dnsmsg.Question) *dnsmsg.Message { return f(q) }
