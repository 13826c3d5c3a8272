package czds

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"darkdns/internal/registry"
	"darkdns/internal/simclock"
	"darkdns/internal/zoneset"
)

var t0 = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

func day(i int) time.Time { return t0.Add(time.Duration(i) * 24 * time.Hour) }

// publisher feeds a Service what a registry would publish for a series
// of whole zones: each zone's diff against the one before it of its TLD,
// the first against the empty zone.
type publisher struct {
	svc  *Service
	prev map[string]*zoneset.Snapshot
}

func newPublisher() *publisher {
	return &publisher{svc: New(), prev: make(map[string]*zoneset.Snapshot)}
}

// publish folds the zone of tld holding exactly domains, taken at taken.
func (p *publisher) publish(tld string, taken time.Time, domains ...string) {
	s := zoneset.NewSnapshot(tld, 1, taken)
	for _, d := range domains {
		s.Add(d, []string{"ns1.example.net"})
	}
	old := p.prev[tld]
	if old == nil {
		old = zoneset.NewSnapshot(tld, 0, time.Time{})
	}
	p.svc.Ingest(zoneset.Compare(old, s))
	p.prev[tld] = s
}

func TestIngestAndLatest(t *testing.T) {
	p := newPublisher()
	p.publish("com", day(0), "a.com")
	p.publish("com", day(1), "a.com", "b.com")
	p.publish("com", day(2), "b.com")

	if !p.svc.InLatest("b.com") {
		t.Error("latest publication's name reported absent")
	}
	if p.svc.InLatest("a.com") {
		t.Error("name removed by the latest publication reported present")
	}
	if got := p.svc.TLDs(); len(got) != 1 || got[0] != "com" {
		t.Errorf("TLDs = %v", got)
	}
}

func TestDiffStatsAccumulate(t *testing.T) {
	p := newPublisher()
	p.publish("com", day(0), "a.com", "gone.com")
	p.publish("com", day(1), "a.com", "b.com", "c.com")
	st := p.svc.Stats("com")
	// First publication is a baseline, not a diff. Second adds b,c and
	// removes gone.
	if st.Added != 2 || st.Removed != 1 {
		t.Errorf("stats: %+v", st)
	}
	if got := p.svc.Stats("nosuch"); got.Added != 0 {
		t.Errorf("empty stats: %+v", got)
	}
}

func TestInLatest(t *testing.T) {
	p := newPublisher()
	p.publish("com", day(0), "present.com")
	if !p.svc.InLatest("Present.COM") {
		t.Error("canonicalized lookup failed")
	}
	if p.svc.InLatest("absent.com") {
		t.Error("absent domain reported present")
	}
	if p.svc.InLatest("anything.nl") {
		t.Error("uncollected TLD must report false")
	}
}

func TestFirstSeen(t *testing.T) {
	p := newPublisher()
	p.publish("com", day(0), "a.com")
	p.publish("com", day(1), "a.com", "b.com")
	ft, ok := p.svc.FirstSeen("a.com")
	if !ok || !ft.Equal(day(0)) {
		t.Errorf("FirstSeen(a.com) = %v, %v", ft, ok)
	}
	ft, ok = p.svc.FirstSeen("b.com")
	if !ok || !ft.Equal(day(1)) {
		t.Errorf("FirstSeen(b.com) = %v, %v", ft, ok)
	}
	if _, ok := p.svc.FirstSeen("never.com"); ok {
		t.Error("never-seen domain has FirstSeen")
	}
}

func TestEverSeenWindow(t *testing.T) {
	p := newPublisher()
	p.publish("com", day(0), "early.com")
	p.publish("com", day(2), "late.com")

	if !p.svc.EverSeen("early.com", t0.Add(-time.Hour), t0.Add(time.Hour)) {
		t.Error("early.com should be seen in its window")
	}
	if p.svc.EverSeen("early.com", day(1), day(3)) {
		t.Error("early.com seen outside its snapshot window")
	}
	if !p.svc.EverSeen("late.com", day(0), day(3)) {
		t.Error("late.com should be seen")
	}
	if p.svc.EverSeen("never.com", day(0), day(3)) {
		t.Error("never.com should not be seen")
	}
}

func TestEverSeenIntervalSemantics(t *testing.T) {
	p := newPublisher()
	// Present in every publication from day 0 to day 4 → interval [0,4].
	for i := 0; i < 5; i++ {
		p.publish("com", day(i), "x.com")
	}
	if !p.svc.EverSeen("x.com", day(2), day(3)) {
		t.Error("interior of presence interval should report seen")
	}
	// Presence is the hull of every publication that held the name: one
	// that leaves and comes back counts as seen in between.
	p.publish("com", day(5))
	p.publish("com", day(6))
	p.publish("com", day(7), "x.com")
	if !p.svc.EverSeen("x.com", day(5), day(6)) {
		t.Error("gap inside the presence hull should report seen")
	}
	if p.svc.EverSeen("x.com", day(8), day(9)) {
		t.Error("seen after the latest publication")
	}
}

// TestReadsDuringIngest hammers the hot-path readers while daily
// publications fold underneath them; run with -race. Every publication
// holds paired-a.com, so each reader's view of it is monotone: once
// observed present, no later read may report it absent. (Two separate
// reads may legitimately straddle a fold, so no cross-domain assertion
// is made.)
func TestReadsDuringIngest(t *testing.T) {
	p := newPublisher()
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
				inA := p.svc.InLatest("paired-a.com")
				if seen && !inA {
					t.Error("presence regressed across publications")
					return
				}
				seen = seen || inA
				p.svc.EverSeen("paired-a.com", t0, day(90))
				p.svc.FirstSeen("paired-b.com")
				p.svc.ExistedBefore("churn1.com", day(3))
				p.svc.Stats("com")
			}
		}()
	}
	for i := 0; i < 50; i++ {
		p.publish("com", day(i), "paired-a.com", "paired-b.com", fmt.Sprintf("churn%d.com", i))
	}
	close(stop)
	wg.Wait()
	if first, ok := p.svc.FirstSeen("paired-a.com"); !ok || !first.Equal(t0) {
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
	nl.Register("x.nl", "R", []string{"ns1.a.net"}, netip.Addr{})
	clk.Advance(25 * time.Hour)

	if got := svc.TLDs(); !slices.Equal(got, []string{"com"}) {
		t.Errorf("collected %v, want only com", got)
	}
	if !svc.InLatest("x.com") {
		t.Error("com publication not folded")
	}
	if svc.InLatest("x.nl") {
		t.Error("nl must not be collected")
	}
}

// TestIngestOfKnownDomainsAllocatesPerSnapshotOnly: folding a diff of k
// changes to names already in the collection updates their records in
// place, so what Ingest allocates is the same in a zone of 1 k names as
// in one of 10 k.
func TestIngestOfKnownDomainsAllocatesPerSnapshotOnly(t *testing.T) {
	allocs := func(n int) float64 {
		doms := make([]string, n)
		for i := range doms {
			doms[i] = fmt.Sprintf("d%05d.com", i)
		}
		svc := New()
		svc.Ingest(zoneset.Diff{TLD: "com", Serial: 1, Taken: day(0), Added: doms})
		// Ten names leave and ten known ones come back, every day.
		next := zoneset.Diff{TLD: "com", Serial: 2, Taken: day(1), Added: doms[:10], Removed: doms[10:20]}
		return testing.AllocsPerRun(10, func() { svc.Ingest(next) })
	}
	if small, large := allocs(1_000), allocs(10_000); small != large {
		t.Fatalf("folding 20 changes allocates %v in a 1 k-name zone and %v in a 10 k one", small, large)
	}
}

// TestExistedBefore: a seeded sighting or a first publication before t
// both count as "registered in the past".
func TestExistedBefore(t *testing.T) {
	p := newPublisher()
	p.svc.Seed("Old.COM", t0.Add(-30*24*time.Hour))
	p.publish("com", day(0), "zoned.com")
	if !p.svc.ExistedBefore("old.com", t0) {
		t.Error("old.com existed before t0")
	}
	if p.svc.ExistedBefore("old.com", t0.Add(-31*24*time.Hour)) {
		t.Error("not before its first sighting")
	}
	if !p.svc.ExistedBefore("zoned.com", day(1)) || p.svc.ExistedBefore("zoned.com", day(0)) {
		t.Error("a first publication counts from its Taken on, not before")
	}
	if p.svc.ExistedBefore("new.com", t0) {
		t.Error("unknown domain existed")
	}
}

// TestSeedKeepsEarliest: seeds in any order leave the earliest sighting,
// and no other reader sees them.
func TestSeedKeepsEarliest(t *testing.T) {
	svc := New()
	svc.Seed("x.com", day(2))
	svc.Seed("x.com", day(0))
	svc.Seed("x.com", day(1))
	if !svc.ExistedBefore("x.com", t0.Add(time.Nanosecond)) {
		t.Error("earliest seed lost")
	}
	if _, ok := svc.FirstSeen("x.com"); ok {
		t.Error("FirstSeen sees a seed")
	}
	if svc.EverSeen("x.com", day(-1), day(3)) || svc.InLatest("x.com") {
		t.Error("EverSeen or InLatest sees a seed")
	}
}

// TestMissingNames: a name no publication or seed mentioned is absent
// from every reader.
func TestMissingNames(t *testing.T) {
	p := newPublisher()
	p.publish("com", day(0), "here.com")
	if _, ok := p.svc.FirstSeen("nope.com"); ok {
		t.Error("missing domain has FirstSeen")
	}
	if p.svc.EverSeen("nope.com", day(-1), day(1)) || p.svc.InLatest("nope.com") || p.svc.ExistedBefore("nope.com", day(1)) {
		t.Error("missing domain found")
	}
}
