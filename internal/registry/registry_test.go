package registry

import (
	"errors"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"darkdns/internal/simclock"
	"darkdns/internal/zoneset"
)

var t0 = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

func newTestRegistry(tld string) (*Registry, *simclock.Sim) {
	clk := simclock.NewSim(t0)
	cfg := DefaultConfig(tld)
	r := New(cfg, clk, rand.New(rand.NewSource(1)))
	return r, clk
}

// rebuildAt rebuilds the zone at now, outside any clock event, as an
// armed rebuild firing at now would.
func (r *Registry) rebuildAt(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rebuildZone(now)
}

func TestRegisterAppearsAfterZoneRebuild(t *testing.T) {
	r, clk := newTestRegistry("com")
	defer r.Stop()
	reg, err := r.Register("example.com", "GoDaddy", []string{"ns1.cloudflare.com"}, netip.MustParseAddr("104.16.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Created != t0 {
		t.Errorf("Created = %v", reg.Created)
	}
	if r.InZone("example.com") {
		t.Error("domain visible before zone rebuild")
	}
	clk.Advance(60 * time.Second) // com rebuilds every 60 s
	if !r.InZone("example.com") {
		t.Error("domain not visible after rebuild")
	}
	got, ok := r.Lookup("example.com")
	if !ok || got.InZoneAt != t0.Add(60*time.Second) {
		t.Errorf("InZoneAt = %v", got.InZoneAt)
	}
}

func TestZoneCadenceByTLD(t *testing.T) {
	if DefaultConfig("com").ZoneUpdateEvery != time.Minute {
		t.Error("com cadence")
	}
	if DefaultConfig("net").ZoneUpdateEvery != time.Minute {
		t.Error("net cadence")
	}
	if DefaultConfig("xyz").ZoneUpdateEvery != 20*time.Minute {
		t.Error("xyz cadence")
	}
	if DefaultConfig("org").ZoneUpdateEvery != 15*time.Minute {
		t.Error("org cadence")
	}
	if cfg := DefaultConfig("nl"); cfg.InCZDS {
		t.Error("nl should not be in CZDS")
	}
}

func TestDuplicateRegistrationFails(t *testing.T) {
	r, _ := newTestRegistry("com")
	defer r.Stop()
	if _, err := r.Register("x.com", "A", []string{"ns.a.net"}, netip.Addr{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("x.com", "B", nil, netip.Addr{}); !errors.Is(err, ErrExists) {
		t.Errorf("want ErrExists, got %v", err)
	}
}

func TestWrongZoneRejected(t *testing.T) {
	r, _ := newTestRegistry("com")
	defer r.Stop()
	if _, err := r.Register("x.net", "A", nil, netip.Addr{}); !errors.Is(err, ErrWrongZone) {
		t.Errorf("want ErrWrongZone, got %v", err)
	}
	if _, err := r.Register("sub.x.com", "A", nil, netip.Addr{}); !errors.Is(err, ErrWrongZone) {
		t.Errorf("3-label name: want ErrWrongZone, got %v", err)
	}
}

func TestDeleteLeavesZoneOnRebuild(t *testing.T) {
	r, clk := newTestRegistry("com")
	defer r.Stop()
	r.Register("gone.com", "A", []string{"ns.a.net"}, netip.Addr{})
	clk.Advance(time.Minute)
	if !r.InZone("gone.com") {
		t.Fatal("setup: not in zone")
	}
	if err := r.Delete("gone.com"); err != nil {
		t.Fatal(err)
	}
	if !r.InZone("gone.com") {
		t.Error("delete applied before rebuild")
	}
	clk.Advance(time.Minute)
	if r.InZone("gone.com") {
		t.Error("still in zone after rebuild")
	}
	got, _ := r.Lookup("gone.com")
	if got.OutOfZoneAt.IsZero() || got.Deleted.IsZero() {
		t.Errorf("ledger: %+v", got)
	}
	if err := r.Delete("gone.com"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
}

func TestTransientDomainNeverInZoneOfSnapshot(t *testing.T) {
	// A domain created and deleted between two snapshot publications must
	// never appear in any published snapshot — the paper's core premise.
	clk := simclock.NewSim(t0)
	cfg := DefaultConfig("com")
	r := New(cfg, clk, rand.New(rand.NewSource(1)))
	defer r.Stop()
	var diffs []zoneset.Diff
	r.Subscribe(func(d zoneset.Diff) { diffs = append(diffs, d) })

	clk.Advance(time.Hour) // first snapshot at +24h; register at +1h
	r.Register("transient.com", "GoDaddy", []string{"ns1.cloudflare.com"}, netip.Addr{})
	clk.Advance(3 * time.Hour) // alive 3h, in live zone
	if !r.InZone("transient.com") {
		t.Fatal("should be in live zone")
	}
	r.Delete("transient.com")
	clk.Advance(21 * time.Hour) // past the 24h snapshot point
	if len(diffs) == 0 {
		t.Fatal("no snapshot published")
	}
	for _, d := range diffs {
		if slices.Contains(d.Added, "transient.com") {
			t.Error("transient domain leaked into a snapshot")
		}
	}
}

func TestSnapshotCapturesLongLived(t *testing.T) {
	r, clk := newTestRegistry("com")
	defer r.Stop()
	var diffs []zoneset.Diff
	r.Subscribe(func(d zoneset.Diff) { diffs = append(diffs, d) })
	r.Register("stable.com", "A", []string{"ns.a.net"}, netip.Addr{})
	clk.Advance(25 * time.Hour)
	if len(diffs) != 1 || !slices.Equal(diffs[0].Added, []string{"stable.com"}) {
		t.Fatalf("publications: %+v", diffs)
	}
}

func TestSnapshotDelay(t *testing.T) {
	clk := simclock.NewSim(t0)
	cfg := DefaultConfig("com")
	cfg.SnapshotDelay = func(*rand.Rand) time.Duration { return 2 * time.Hour }
	r := New(cfg, clk, rand.New(rand.NewSource(1)))
	defer r.Stop()
	var got []time.Time
	r.Subscribe(func(zoneset.Diff) { got = append(got, clk.Now()) })
	clk.Advance(24 * time.Hour)
	if len(got) != 0 {
		t.Fatal("snapshot delivered without delay")
	}
	clk.Advance(2 * time.Hour)
	if len(got) != 1 || !got[0].Equal(t0.Add(26*time.Hour)) {
		t.Fatalf("delivery times: %v", got)
	}
}

// TestLateSnapshotHoldsBackLaterOnes: a publication delayed past the
// next one's delivery time must not be overtaken by it, or a subscriber
// would roll its view of the zone back to the older day.
func TestLateSnapshotHoldsBackLaterOnes(t *testing.T) {
	clk := simclock.NewSim(t0)
	cfg := DefaultConfig("com")
	delays := []time.Duration{72 * time.Hour, time.Hour}
	cfg.SnapshotDelay = func(*rand.Rand) time.Duration {
		d := delays[0]
		if len(delays) > 1 {
			delays = delays[1:]
		}
		return d
	}
	r := New(cfg, clk, rand.New(rand.NewSource(1)))
	defer r.Stop()
	var taken []time.Time
	r.Subscribe(func(d zoneset.Diff) { taken = append(taken, d.Taken) })
	clk.Advance(6 * 24 * time.Hour)
	if len(taken) < 3 {
		t.Fatalf("delivered %d snapshots, want at least 3", len(taken))
	}
	for i := 1; i < len(taken); i++ {
		if taken[i].Before(taken[i-1]) {
			t.Fatalf("delivery %d taken %v after one taken %v", i, taken[i], taken[i-1])
		}
	}
}

func TestCCTLDSnapshotsStayPrivate(t *testing.T) {
	// A ccTLD registry still generates daily zone files for its own
	// subscribers (the registry's private view); only CZDS
	// redistribution is off.
	r, clk := newTestRegistry("nl")
	defer r.Stop()
	if r.InCZDS() {
		t.Fatal("nl should not participate in CZDS")
	}
	snaps := 0
	r.Subscribe(func(zoneset.Diff) { snaps++ })
	r.Register("voorbeeld.nl", "Metaregistrar", []string{"ns1.metaregistrar.nl"}, netip.Addr{})
	clk.Advance(72 * time.Hour)
	if snaps == 0 {
		t.Error("registry-side snapshots should still be generated")
	}
	if !r.InZone("voorbeeld.nl") {
		t.Error("ccTLD live zone should still update")
	}
}

func TestSerialBumpsOnlyOnChanges(t *testing.T) {
	r, clk := newTestRegistry("com")
	defer r.Stop()
	s0 := r.Serial()
	clk.Advance(10 * time.Minute) // several rebuild ticks, no changes
	if r.Serial() != s0 {
		t.Error("serial bumped without changes")
	}
	r.Register("x.com", "A", []string{"ns.a.net"}, netip.Addr{})
	clk.Advance(time.Minute)
	if r.Serial() != s0+1 {
		t.Errorf("serial = %d, want %d", r.Serial(), s0+1)
	}
}

func TestDelegationLookup(t *testing.T) {
	r, clk := newTestRegistry("com")
	defer r.Stop()
	r.Register("example.com", "A", []string{"ns1.cloudflare.com", "ns2.cloudflare.com"}, netip.Addr{})
	clk.Advance(time.Minute)
	ns, ok := r.Delegation("example.com")
	if !ok || len(ns) != 2 {
		t.Fatalf("Delegation: %v %v", ns, ok)
	}
	// Subdomain queries hit the covering delegation.
	if _, ok := r.Delegation("www.example.com"); !ok {
		t.Error("subdomain should match delegation")
	}
	if _, ok := r.Delegation("missing.com"); ok {
		t.Error("NXDOMAIN expected")
	}
}

func TestUpdateNS(t *testing.T) {
	r, clk := newTestRegistry("com")
	defer r.Stop()
	r.Register("x.com", "A", []string{"ns1.old.net"}, netip.Addr{})
	clk.Advance(time.Minute)
	if err := r.UpdateNS("x.com", []string{"ns1.new.net"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute)
	ns, _ := r.Delegation("x.com")
	if len(ns) != 1 || ns[0] != "ns1.new.net" {
		t.Errorf("NS after update: %v", ns)
	}
	if err := r.UpdateNS("nope.com", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("UpdateNS missing: %v", err)
	}
}

func TestRDAPSyncDelay(t *testing.T) {
	r, clk := newTestRegistry("com")
	defer r.Stop()
	r.Register("fresh.com", "NameCheap", []string{"ns.a.net"}, netip.Addr{})
	if _, err := r.RDAPLookup("fresh.com"); !errors.Is(err, RDAPErrNotSynced) {
		t.Errorf("want RDAPErrNotSynced, got %v", err)
	}
	clk.Advance(2 * time.Minute)
	reg, err := r.RDAPLookup("fresh.com")
	if err != nil || reg.Registrar != "NameCheap" {
		t.Errorf("after sync: %+v, %v", reg, err)
	}
}

func TestRDAPGoneAfterDelete(t *testing.T) {
	r, clk := newTestRegistry("com")
	defer r.Stop()
	r.Register("dead.com", "A", []string{"ns.a.net"}, netip.Addr{})
	clk.Advance(5 * time.Minute)
	r.Delete("dead.com")
	clk.Advance(time.Minute)
	if _, err := r.RDAPLookup("dead.com"); !errors.Is(err, ErrNotFound) {
		t.Errorf("want ErrNotFound after delete, got %v", err)
	}
}

func TestRDAPUnknownDomain(t *testing.T) {
	r, _ := newTestRegistry("com")
	defer r.Stop()
	if _, err := r.RDAPLookup("never.com"); !errors.Is(err, ErrNotFound) {
		t.Errorf("want ErrNotFound, got %v", err)
	}
}

func TestReRegistrationAfterDeletion(t *testing.T) {
	r, clk := newTestRegistry("com")
	defer r.Stop()
	r.Register("again.com", "A", []string{"ns.a.net"}, netip.Addr{})
	clk.Advance(2 * time.Minute)
	r.Delete("again.com")
	clk.Advance(time.Minute)
	if _, err := r.Register("again.com", "B", []string{"ns.b.net"}, netip.Addr{}); err != nil {
		t.Fatalf("re-registration: %v", err)
	}
	clk.Advance(3 * time.Minute)
	reg, err := r.RDAPLookup("again.com")
	if err != nil || reg.Registrar != "B" {
		t.Errorf("re-registered RDAP: %+v, %v", reg, err)
	}
	if got := r.Ledger(); len(got) != 2 {
		t.Errorf("ledger entries = %d, want 2", len(got))
	}
}

// TestReRegistrationBetweenRebuildsLeavesZone: a name deleted and
// re-registered inside one rebuild interval keeps the old registration's
// delegation live until the next rebuild, and that rebuild — which
// replaces the delegation, or removes it when the re-registration was
// deleted too — is when the old registration leaves the zone.
func TestReRegistrationBetweenRebuildsLeavesZone(t *testing.T) {
	for _, deleteAgain := range []bool{false, true} {
		r, clk := newTestRegistry("com")
		r.Register("x.com", "A", []string{"ns.a.net"}, netip.Addr{})
		clk.Advance(2 * time.Minute) // in the zone from the 1 m rebuild
		if err := r.Delete("x.com"); err != nil {
			t.Fatal(err)
		}
		clk.Advance(10 * time.Second)
		if _, err := r.Register("x.com", "B", []string{"ns.b.net"}, netip.Addr{}); err != nil {
			t.Fatal(err)
		}
		if deleteAgain {
			if err := r.Delete("x.com"); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(2 * time.Minute) // the 3 m rebuild replaces the delegation
		r.Stop()

		led := r.Ledger()
		if len(led) != 2 {
			t.Fatalf("deleteAgain=%v: %d ledger entries, want 2", deleteAgain, len(led))
		}
		a, b := led[0], led[1]
		if !a.InZoneAt.Equal(t0.Add(time.Minute)) || !a.OutOfZoneAt.Equal(t0.Add(3*time.Minute)) {
			t.Errorf("deleteAgain=%v: superseded registration in the zone from %v to %v, want t0+1m to t0+3m",
				deleteAgain, a.InZoneAt, a.OutOfZoneAt)
		}
		ns, ok := r.Delegation("x.com")
		if deleteAgain {
			if !b.InZoneAt.IsZero() || !b.OutOfZoneAt.IsZero() || ok {
				t.Errorf("re-registration deleted before any rebuild: %+v, delegated=%v", b, ok)
			}
			continue
		}
		if !b.InZoneAt.Equal(t0.Add(3*time.Minute)) || !b.OutOfZoneAt.IsZero() || !ok || ns[0] != "ns.b.net" {
			t.Errorf("re-registration: %+v, delegation %v %v", b, ns, ok)
		}
	}
}

func TestActiveAndLifetime(t *testing.T) {
	reg := Registration{Created: t0, Deleted: t0.Add(6 * time.Hour)}
	if !reg.Active(t0.Add(time.Hour)) || reg.Active(t0.Add(7*time.Hour)) {
		t.Error("Active")
	}
	if reg.Lifetime() != 6*time.Hour {
		t.Error("Lifetime")
	}
	live := Registration{Created: t0}
	if live.Lifetime() != 0 {
		t.Error("live lifetime should be 0")
	}
}

func BenchmarkRegisterAndRebuild(b *testing.B) {
	clk := simclock.NewSim(t0)
	r := New(DefaultConfig("com"), clk, rand.New(rand.NewSource(1)))
	defer r.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Register(domainName(i), "R", []string{"ns1.cloudflare.com"}, netip.Addr{})
		if i%1000 == 999 {
			clk.Advance(time.Minute)
		}
	}
}

func domainName(i int) string {
	const letters = "abcdefghij"
	buf := []byte("dom-xxxxxxxx.com")
	for p := 4; p < 12; p++ {
		buf[p] = letters[i%10]
		i /= 10
	}
	return string(buf)
}
