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

func fixedDelay(d time.Duration) func(*rand.Rand) time.Duration {
	return func(*rand.Rand) time.Duration { return d }
}

// countEntries counts the entries l hands its subscribers, which is how
// a log's readers see what was logged.
func countEntries(l *ct.Log) *int {
	n := new(int)
	l.Subscribe(func(ct.Entry) { *n++ })
	return n
}

// newCA returns a CA over one log, its clock, and the count of entries
// logged so far.
func newCA(zone fakeZone, delay time.Duration) (*CA, *simclock.Sim, *int) {
	clk := simclock.NewSim(t0)
	log := ct.NewLog("test")
	logged := countEntries(log)
	c := New(Config{Name: "TestCA", ValidationDelay: fixedDelay(delay)}, clk,
		rand.New(rand.NewSource(1)), zone, log)
	return c, clk, logged
}

func TestIssueValidatesAndLogs(t *testing.T) {
	zone := fakeZone{"example.com": true}
	c, clk, logged := newCA(zone, 10*time.Second)
	if d := c.ValidationDelay(); d != 10*time.Second {
		t.Fatalf("ValidationDelay = %v, want the configured 10s", d)
	}
	if *logged != 0 {
		t.Fatal("drawing the delay logged an entry")
	}
	clk.Advance(10 * time.Second)
	got, err := c.Issue("Example.COM", "example.com", []string{"www.example.com"})
	if err != nil {
		t.Fatal(err)
	}
	if *logged != 1 {
		t.Fatalf("entries logged = %d", *logged)
	}
	if got.Kind != ct.PreCertificate || got.Issuer != "TestCA" || got.CN != "example.com" {
		t.Errorf("entry: %+v", got)
	}
	if !got.Logged.Equal(t0.Add(10 * time.Second)) {
		t.Errorf("Logged = %v, want the clock's instant", got.Logged)
	}
}

func TestIssueFailsForUnresolvableDomain(t *testing.T) {
	c, _, logged := newCA(fakeZone{}, time.Second)
	if _, err := c.Issue("ghost.com", "ghost.com", nil); !errors.Is(err, ErrValidationFailed) {
		t.Errorf("want ErrValidationFailed, got %v", err)
	}
	if *logged != 0 {
		t.Error("failed validation must not log")
	}
}

func TestDVTokenReuseIssuesForDeadDomain(t *testing.T) {
	// The §4.2 cause-iii behaviour: a domain validated in the past can
	// get a certificate after deletion, within the 398-day window.
	zone := fakeZone{"dead.com": true}
	c, clk, logged := newCA(zone, time.Second)
	if _, err := c.Issue("dead.com", "dead.com", nil); err != nil || *logged != 1 {
		t.Fatalf("setup issuance failed: %v", err)
	}
	delete(zone, "dead.com") // domain removed from zone
	clk.Advance(time.Second)
	if _, err := c.Issue("dead.com", "dead.com", nil); err != nil {
		t.Fatalf("reissue with cached token failed: %v", err)
	}
	if *logged != 2 {
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
	if _, err := c.Issue("old.com", "old.com", nil); err != nil {
		t.Fatal(err)
	}
	delete(zone, "old.com")
	clk.Advance(DVReuseWindow + time.Hour)
	if _, err := c.Issue("old.com", "old.com", nil); !errors.Is(err, ErrValidationFailed) {
		t.Errorf("expired token should force re-validation: %v", err)
	}
}

func TestSeedTokenModelsHistoricalValidation(t *testing.T) {
	c, _, logged := newCA(fakeZone{}, time.Second)
	c.SeedToken("historic.com", t0.Add(-100*24*time.Hour))
	if !c.HasToken("historic.com", t0) {
		t.Fatal("seeded token missing")
	}
	if _, err := c.Issue("historic.com", "historic.com", nil); err != nil || *logged != 1 {
		t.Errorf("historic issuance: %v, entries logged %d", err, *logged)
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
	if _, err := c.Issue("x.com", "x.com", nil); err != nil {
		t.Fatal(err)
	}
	first := clk.Now()
	// 200 days later, another issuance re-validates (token still fresh ⇒
	// actually reuses). Then at 397 days from the *first* validation the
	// token is still valid.
	clk.Advance(200 * 24 * time.Hour)
	if _, err := c.Issue("x.com", "x.com", nil); err != nil {
		t.Fatal(err)
	}
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
	l1, l2 := ct.NewLog("a"), ct.NewLog("b")
	n1, n2 := countEntries(l1), countEntries(l2)
	c := New(Config{Name: "CA", ValidationDelay: fixedDelay(0)}, clk,
		rand.New(rand.NewSource(1)), fakeZone{"x.com": true}, l1, l2)
	if _, err := c.Issue("x.com", "x.com", nil); err != nil {
		t.Fatal(err)
	}
	if *n1 != 1 || *n2 != 1 {
		t.Errorf("entries logged: %d, %d", *n1, *n2)
	}
}

// TestValidationDelayDrawsFromTheCAGenerator: without a configured
// delay, ValidationDelay draws DefaultValidationDelay from the generator
// New was given, so a seeded CA draws the same sequence every run.
func TestValidationDelayDrawsFromTheCAGenerator(t *testing.T) {
	c := New(Config{Name: "CA"}, simclock.NewSim(t0), rand.New(rand.NewSource(9)), fakeZone{})
	ref := rand.New(rand.NewSource(9))
	for i := range 100 {
		if got, want := c.ValidationDelay(), DefaultValidationDelay(ref); got != want {
			t.Fatalf("draw %d: %v, want %v", i, got, want)
		}
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

// TestIssueAllocations pins certificate requests, validated or failed,
// to no allocation of their own: the CA keeps no request object, and
// logging a precertificate with no SANs stores nothing, so a thousand
// requests allocate at most 20 times, averaged over 20 batches.
func TestIssueAllocations(t *testing.T) {
	const runs, batches, most = 1000, 20, 20
	c, clk, logged := newCA(fakeZone{"x.com": true}, time.Second)
	var ok, failed int
	for _, tc := range []struct{ name, cn string }{{"x.com", "www.x.com"}, {"gone.com", "gone.com"}} {
		// AllocsPerRun calls the batch once to warm up, then batches times,
		// and reports the mean count of those.
		allocs := testing.AllocsPerRun(batches, func() {
			for range runs {
				clk.Advance(c.ValidationDelay())
				if _, err := c.Issue(tc.name, tc.cn, nil); err != nil {
					failed++
				} else {
					ok++
				}
			}
		})
		t.Logf("%d Issue(%s) calls: %v allocations", runs, tc.name, allocs)
		if allocs > most {
			t.Errorf("%d Issue(%s) calls allocate %v times, want ≤ %d", runs, tc.name, allocs, most)
		}
	}
	if calls := (batches + 1) * runs; ok != calls || failed != calls || *logged != calls {
		t.Errorf("%d issued, %d failed, %d logged; want %d of each", ok, failed, *logged, calls)
	}
}
