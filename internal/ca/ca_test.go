package ca

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"darkdns/internal/ct"
	"darkdns/internal/simclock"
)

var t0 = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

type fakeZone map[string]bool

func (z fakeZone) Resolves(name string) bool { return z[name] }

// outcomeFunc adapts a callback to Outcome.
type outcomeFunc func(ct.Entry, error)

func (f outcomeFunc) Issued(e ct.Entry, err error) { f(e, err) }

func fixedDelay(d time.Duration) func(*rand.Rand) time.Duration {
	return func(*rand.Rand) time.Duration { return d }
}

func newCA(zone fakeZone, delay time.Duration) (*CA, *simclock.Sim, *ct.Log) {
	clk := simclock.NewSim(t0)
	log := ct.NewLog("test", nil)
	c := New(Config{Name: "TestCA", ValidationDelay: fixedDelay(delay)}, clk,
		rand.New(rand.NewSource(1)), zone, log)
	return c, clk, log
}

func TestIssueValidatesAndLogs(t *testing.T) {
	zone := fakeZone{"example.com": true}
	c, clk, log := newCA(zone, 10*time.Second)
	var got ct.Entry
	var gotErr error
	c.Issue("example.com", "example.com", []string{"www.example.com"}, outcomeFunc(func(e ct.Entry, err error) {
		got, gotErr = e, err
	}))
	if log.Size() != 0 {
		t.Fatal("logged before validation delay")
	}
	clk.Advance(10 * time.Second)
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if log.Size() != 1 {
		t.Fatalf("log size = %d", log.Size())
	}
	if got.Kind != ct.PreCertificate || got.Issuer != "TestCA" || got.CN != "example.com" {
		t.Errorf("entry: %+v", got)
	}
	if !got.Logged.Equal(t0.Add(10 * time.Second)) {
		t.Errorf("Logged = %v", got.Logged)
	}
}

func TestIssueFailsForUnresolvableDomain(t *testing.T) {
	c, clk, log := newCA(fakeZone{}, time.Second)
	var gotErr error
	c.Issue("ghost.com", "ghost.com", nil, outcomeFunc(func(_ ct.Entry, err error) { gotErr = err }))
	clk.Advance(time.Second)
	if !errors.Is(gotErr, ErrValidationFailed) {
		t.Errorf("want ErrValidationFailed, got %v", gotErr)
	}
	if log.Size() != 0 {
		t.Error("failed validation must not log")
	}
}

func TestDVTokenReuseIssuesForDeadDomain(t *testing.T) {
	// The §4.2 cause-iii behaviour: a domain validated in the past can
	// get a certificate after deletion, within the 398-day window.
	zone := fakeZone{"dead.com": true}
	c, clk, log := newCA(zone, time.Second)
	c.Issue("dead.com", "dead.com", nil, nil)
	clk.Advance(time.Second)
	if log.Size() != 1 {
		t.Fatal("setup issuance failed")
	}
	delete(zone, "dead.com") // domain removed from zone
	var gotErr error
	c.Issue("dead.com", "dead.com", nil, outcomeFunc(func(_ ct.Entry, err error) { gotErr = err }))
	clk.Advance(time.Second)
	if gotErr != nil {
		t.Fatalf("reissue with cached token failed: %v", gotErr)
	}
	if log.Size() != 2 {
		t.Error("reissue not logged")
	}
	issued, reused := c.Stats()
	if issued != 2 || reused != 1 {
		t.Errorf("stats: issued=%d reused=%d", issued, reused)
	}
}

func TestDVTokenExpiresAfter398Days(t *testing.T) {
	zone := fakeZone{"old.com": true}
	c, clk, _ := newCA(zone, time.Second)
	c.Issue("old.com", "old.com", nil, nil)
	clk.Advance(time.Second)
	delete(zone, "old.com")
	clk.Advance(DVReuseWindow + time.Hour)
	var gotErr error
	c.Issue("old.com", "old.com", nil, outcomeFunc(func(_ ct.Entry, err error) { gotErr = err }))
	clk.Advance(time.Second)
	if !errors.Is(gotErr, ErrValidationFailed) {
		t.Errorf("expired token should force re-validation: %v", gotErr)
	}
}

func TestSeedTokenModelsHistoricalValidation(t *testing.T) {
	c, clk, log := newCA(fakeZone{}, time.Second)
	c.SeedToken("historic.com", t0.Add(-100*24*time.Hour))
	if !c.HasToken("historic.com", t0) {
		t.Fatal("seeded token missing")
	}
	var gotErr error
	c.Issue("historic.com", "historic.com", nil, outcomeFunc(func(_ ct.Entry, err error) { gotErr = err }))
	clk.Advance(time.Second)
	if gotErr != nil || log.Size() != 1 {
		t.Errorf("historic issuance: %v, log=%d", gotErr, log.Size())
	}
	// A token seeded beyond the window must not validate.
	c.SeedToken("ancient.com", t0.Add(-500*24*time.Hour))
	if c.HasToken("ancient.com", t0) {
		t.Error("expired seed treated as valid")
	}
}

func TestFreshValidationRefreshesToken(t *testing.T) {
	zone := fakeZone{"x.com": true}
	c, clk, _ := newCA(zone, time.Second)
	c.Issue("x.com", "x.com", nil, nil)
	clk.Advance(time.Second)
	first := clk.Now()
	// 200 days later, another issuance re-validates (token still fresh ⇒
	// actually reuses). Then at 397 days from the *first* validation the
	// token is still valid.
	clk.Advance(200 * 24 * time.Hour)
	c.Issue("x.com", "x.com", nil, nil)
	clk.Advance(time.Second)
	_, reused := c.Stats()
	if reused != 1 {
		t.Errorf("second issuance should reuse, reused=%d", reused)
	}
	if !c.HasToken("x.com", first.Add(397*24*time.Hour)) {
		t.Error("token should still be valid at +397d from validation")
	}
}

func TestMultipleLogsAllReceive(t *testing.T) {
	clk := simclock.NewSim(t0)
	l1, l2 := ct.NewLog("a", nil), ct.NewLog("b", nil)
	c := New(Config{Name: "CA", ValidationDelay: fixedDelay(0)}, clk,
		rand.New(rand.NewSource(1)), fakeZone{"x.com": true}, l1, l2)
	c.Issue("x.com", "x.com", nil, nil)
	clk.Advance(0)
	if l1.Size() != 1 || l2.Size() != 1 {
		t.Errorf("log sizes: %d, %d", l1.Size(), l2.Size())
	}
}

func TestDefaultValidationDelayBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10_000; i++ {
		d := DefaultValidationDelay(rng)
		if d < 5*time.Second || d > 10*time.Minute {
			t.Fatalf("delay %v out of bounds", d)
		}
	}
}

// tally counts outcomes. A pointer to it is an Outcome that binds nothing
// per request, the way the world's certificate attempts are.
type tally struct{ ok, failed int }

func (t *tally) Issued(_ ct.Entry, err error) {
	if err != nil {
		t.failed++
	} else {
		t.ok++
	}
}

// TestIssueAllocations pins a certificate request, validated or failed,
// to one allocation: the pending issuance that is its own clock timer.
// Logging the precertificate appends to the log's slab, which amortizes
// below one per request.
func TestIssueAllocations(t *testing.T) {
	const runs = 1000
	c, clk, log := newCA(fakeZone{"x.com": true}, time.Second)
	var out tally
	for _, tc := range []struct{ name, cn string }{{"x.com", "www.x.com"}, {"gone.com", "gone.com"}} {
		allocs := testing.AllocsPerRun(runs, func() {
			c.Issue(tc.name, tc.cn, nil, &out)
			clk.Advance(time.Second)
		})
		if allocs > 1 {
			t.Errorf("Issue(%s) then its firing allocate %v times, want ≤ 1", tc.name, allocs)
		}
	}
	if out.ok != runs+1 || out.failed != runs+1 || log.Size() != runs+1 {
		t.Errorf("outcomes %+v, log size %d; want %d of each", out, log.Size(), runs+1)
	}
}
