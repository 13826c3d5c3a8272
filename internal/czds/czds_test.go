package czds

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"darkdns/internal/registry"
	"darkdns/internal/simclock"
	"darkdns/internal/zoneset"
)

var t0 = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

func snapAt(tld string, taken time.Time, domains ...string) *zoneset.Snapshot {
	s := zoneset.NewSnapshot(tld, 1, taken)
	for _, d := range domains {
		s.Add(d, []string{"ns1.example.net"})
	}
	return s
}

func TestIngestAndLatest(t *testing.T) {
	svc := New()
	svc.Ingest(snapAt("com", t0, "a.com"))
	svc.Ingest(snapAt("com", t0.Add(24*time.Hour), "a.com", "b.com"))

	latest, err := svc.Latest("com")
	if err != nil {
		t.Fatal(err)
	}
	if !latest.Contains("b.com") {
		t.Error("latest snapshot is stale")
	}
	if _, err := svc.Latest("net"); !errors.Is(err, ErrNoZone) {
		t.Errorf("want ErrNoZone, got %v", err)
	}
	if got := svc.TLDs(); len(got) != 1 || got[0] != "com" {
		t.Errorf("TLDs = %v", got)
	}
}

func TestDiffStatsAccumulate(t *testing.T) {
	svc := New()
	svc.Ingest(snapAt("com", t0, "a.com", "gone.com"))
	svc.Ingest(snapAt("com", t0.Add(24*time.Hour), "a.com", "b.com", "c.com"))
	st := svc.Stats("com")
	// First snapshot is a baseline, not a diff. Second adds b,c and
	// removes gone.
	if st.Added != 2 || st.Removed != 1 {
		t.Errorf("stats: %+v", st)
	}
	if got := svc.Stats("nosuch"); got.Added != 0 {
		t.Errorf("empty stats: %+v", got)
	}
}

func TestInLatest(t *testing.T) {
	svc := New()
	svc.Ingest(snapAt("com", t0, "present.com"))
	if !svc.InLatest("Present.COM") {
		t.Error("canonicalized lookup failed")
	}
	if svc.InLatest("absent.com") {
		t.Error("absent domain reported present")
	}
	if svc.InLatest("anything.nl") {
		t.Error("uncollected TLD must report false")
	}
}

func TestFirstSeen(t *testing.T) {
	svc := New()
	svc.Ingest(snapAt("com", t0, "a.com"))
	svc.Ingest(snapAt("com", t0.Add(24*time.Hour), "a.com", "b.com"))
	ft, ok := svc.FirstSeen("a.com")
	if !ok || !ft.Equal(t0) {
		t.Errorf("FirstSeen(a.com) = %v, %v", ft, ok)
	}
	ft, ok = svc.FirstSeen("b.com")
	if !ok || !ft.Equal(t0.Add(24*time.Hour)) {
		t.Errorf("FirstSeen(b.com) = %v, %v", ft, ok)
	}
	if _, ok := svc.FirstSeen("never.com"); ok {
		t.Error("never-seen domain has FirstSeen")
	}
}

func TestEverSeenWindow(t *testing.T) {
	svc := New()
	svc.Ingest(snapAt("com", t0, "early.com"))
	svc.Ingest(snapAt("com", t0.Add(48*time.Hour), "late.com"))

	if !svc.EverSeen("early.com", t0.Add(-time.Hour), t0.Add(time.Hour)) {
		t.Error("early.com should be seen in its window")
	}
	if svc.EverSeen("early.com", t0.Add(24*time.Hour), t0.Add(72*time.Hour)) {
		t.Error("early.com seen outside its snapshot window")
	}
	if !svc.EverSeen("late.com", t0, t0.Add(72*time.Hour)) {
		t.Error("late.com should be seen")
	}
	if svc.EverSeen("never.com", t0, t0.Add(72*time.Hour)) {
		t.Error("never.com should not be seen")
	}
}

func TestEverSeenIntervalSemantics(t *testing.T) {
	svc := New()
	// Present in snapshots on day 0 and day 5 → interval [0,5].
	svc.Ingest(snapAt("com", t0, "x.com"))
	for i := 1; i < 5; i++ {
		svc.Ingest(snapAt("com", t0.Add(time.Duration(i)*24*time.Hour), "x.com"))
	}
	if !svc.EverSeen("x.com", t0.Add(2*24*time.Hour), t0.Add(3*24*time.Hour)) {
		t.Error("interior of presence interval should report seen")
	}
}

func TestSubscribersNotified(t *testing.T) {
	svc := New()
	var got []string
	svc.Subscribe(func(s *zoneset.Snapshot) { got = append(got, s.TLD) })
	svc.Ingest(snapAt("com", t0))
	svc.Ingest(snapAt("xyz", t0))
	if len(got) != 2 || got[1] != "xyz" {
		t.Errorf("notifications: %v", got)
	}
}

// TestLockFreeReadsDuringIngest hammers the hot-path readers while daily
// collections swap the view underneath them; run with -race. Every
// ingested snapshot contains paired-a.com, so each reader's view of it
// is monotone: once observed present, no later generation may report it
// absent. (Two separate reads may legitimately straddle a swap, so no
// cross-domain assertion is made.)
func TestLockFreeReadsDuringIngest(t *testing.T) {
	svc := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				inA := svc.InLatest("paired-a.com")
				if seen && !inA {
					t.Error("presence regressed across generations")
					return
				}
				seen = seen || inA
				svc.EverSeen("paired-a.com", t0, t0.Add(90*24*time.Hour))
				svc.FirstSeen("paired-b.com")
				svc.Stats("com")
			}
		}()
	}
	for day := 0; day < 50; day++ {
		snap := snapAt("com", t0.Add(time.Duration(day)*24*time.Hour),
			"paired-a.com", "paired-b.com", "filler.com")
		svc.Ingest(snap)
	}
	close(stop)
	wg.Wait()
	if first, ok := svc.FirstSeen("paired-a.com"); !ok || !first.Equal(t0) {
		t.Errorf("FirstSeen = %v, %v", first, ok)
	}
}

func TestCollectFromRegistryRespectsCZDSMembership(t *testing.T) {
	clk := simclock.NewSim(t0)
	svc := New()

	com := registry.New(registry.DefaultConfig("com"), clk, rand.New(rand.NewSource(1)))
	defer com.Stop()
	nl := registry.New(registry.DefaultConfig("nl"), clk, rand.New(rand.NewSource(2)))
	defer nl.Stop()

	svc.Collect(com)
	svc.Collect(nl)

	com.Register("x.com", "R", []string{"ns1.a.net"}, netip.Addr{})
	clk.Advance(25 * time.Hour)

	if _, err := svc.Latest("com"); err != nil {
		t.Errorf("com snapshot missing: %v", err)
	}
	if _, err := svc.Latest("nl"); !errors.Is(err, ErrNoZone) {
		t.Errorf("nl must not be collected: %v", err)
	}
}

// TestIngestOfKnownDomainsAllocatesPerSnapshotOnly: a snapshot whose
// domains are all already in the presence index updates their intervals
// in place, so what Ingest allocates — the next view generation, the
// subscriber copy — is the same at 1 k domains as at 10 k.
func TestIngestOfKnownDomainsAllocatesPerSnapshotOnly(t *testing.T) {
	allocs := func(n int) float64 {
		svc := New()
		doms := make([]string, n)
		for i := range doms {
			doms[i] = fmt.Sprintf("d%05d.com", i)
		}
		svc.Ingest(snapAt("com", t0, doms...))
		next := snapAt("com", t0.Add(24*time.Hour), doms...)
		next.Domains() // the snapshot's own sorted index, built once
		return testing.AllocsPerRun(10, func() { svc.Ingest(next) })
	}
	if small, large := allocs(1_000), allocs(10_000); small != large {
		t.Fatalf("Ingest of known domains allocates %v at 1 k domains and %v at 10 k", small, large)
	}
}
