package registry

import (
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestWebAddrs covers the A-answer accessor against the InZone + Lookup
// pair it replaced: nothing before the rebuild, the newest registration's
// address while delegated, nothing after the delegation leaves the zone.
func TestWebAddrs(t *testing.T) {
	r, clk := newTestRegistry("com")
	defer r.Stop()
	web := netip.MustParseAddr("104.16.0.5")
	r.Register("example.com", "A", []string{"ns1.a.net"}, web)
	r.Register("noweb.com", "A", []string{"ns1.a.net"}, netip.Addr{})
	if got := r.WebAddrs("example.com"); got != nil {
		t.Errorf("answered before the zone rebuild: %v", got)
	}
	clk.Advance(time.Minute)
	if got := r.WebAddrs("Example.COM."); len(got) != 1 || got[0] != web {
		t.Errorf("WebAddrs = %v, want [%v]", got, web)
	}
	if got := r.WebAddrs("noweb.com"); got != nil {
		t.Errorf("domain without a web address answered %v", got)
	}
	if got := r.WebAddrs("missing.com"); got != nil {
		t.Errorf("unregistered domain answered %v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.WebAddrs("example.com") }); allocs != 0 {
		t.Errorf("WebAddrs allocates %v per call", allocs)
	}
	r.Delete("example.com")
	if got := r.WebAddrs("example.com"); len(got) != 1 {
		t.Errorf("deleted domain stopped answering before the rebuild: %v", got)
	}
	clk.Advance(time.Minute)
	if got := r.WebAddrs("example.com"); got != nil {
		t.Errorf("answered after leaving the zone: %v", got)
	}
}

// TestSharedAnswersSurviveMutation is the registry half of the sharing
// contract: Delegation and WebAddrs hand out the registry's own slices,
// so every mutation must install new ones and leave the old untouched.
func TestSharedAnswersSurviveMutation(t *testing.T) {
	r, clk := newTestRegistry("com")
	defer r.Stop()
	oldWeb, newWeb := netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.99")
	r.Register("x.com", "A", []string{"ns1.old.net", "ns2.old.net"}, oldWeb)
	clk.Advance(time.Minute)
	ns, _ := r.Delegation("x.com")
	v4 := r.WebAddrs("x.com")
	wantNS := append([]string(nil), ns...)

	if err := r.UpdateNS("x.com", []string{"ns1.new.net"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute)
	r.Delete("x.com")
	clk.Advance(time.Minute)
	if _, err := r.Register("x.com", "B", []string{"ns9.other.net", "ns8.other.net"}, newWeb); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute)

	if !reflect.DeepEqual(ns, wantNS) {
		t.Errorf("earlier Delegation answer changed: %v, want %v", ns, wantNS)
	}
	if len(v4) != 1 || v4[0] != oldWeb {
		t.Errorf("earlier WebAddrs answer changed: %v", v4)
	}
	if got, _ := r.Delegation("x.com"); !reflect.DeepEqual(got, []string{"ns8.other.net", "ns9.other.net"}) {
		t.Errorf("Delegation after re-registration: %v", got)
	}
	if got := r.WebAddrs("x.com"); len(got) != 1 || got[0] != newWeb {
		t.Errorf("WebAddrs after re-registration: %v", got)
	}
}

// TestReadersRaceMutators hammers every read-locked query from several
// goroutines while one writer registers, re-delegates, deletes and
// rebuilds the zone. Run under -race: the read side shares the zone map,
// the ledger and the answer slices with the writer.
func TestReadersRaceMutators(t *testing.T) {
	r, clk := newTestRegistry("com")
	defer r.Stop()
	const names = 64
	web := netip.MustParseAddr("192.0.2.1")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := domainName(i % names)
				if ns, ok := r.Delegation(d); ok && len(ns) == 0 {
					t.Errorf("%s delegated to nothing", d)
				}
				for _, a := range r.WebAddrs(d) {
					if a != web {
						t.Errorf("%s resolves to %v", d, a)
					}
				}
				r.InZone(d)
				if ans := r.Answer(d); ans.InZone && (!ans.Delegated || len(ans.NS) == 0) {
					t.Errorf("%s in zone but answered %+v", d, ans)
				}
				r.Lookup(d)
				r.RDAPLookupAt(d, t0.Add(time.Hour))
				r.Serial()
				r.ZoneLen()
			}
		}(g)
	}
	// The writer owns the clock: Register/Delete stamp Now, and rebuildZone
	// is called directly so no clock event is needed to fire it.
	now := clk.Now()
	for round := 0; round < 50; round++ {
		for i := 0; i < names; i++ {
			d := domainName(i)
			switch (round + i) % 3 {
			case 0:
				r.RegisterAt(d, "A", []string{"ns2.a.net", "ns1.a.net"}, web, now)
			case 1:
				r.UpdateNS(d, []string{"ns1.b.net"})
			case 2:
				r.DeleteAt(d, now)
			}
		}
		now = now.Add(time.Minute)
		r.rebuildZone(now)
	}
	close(stop)
	wg.Wait()
	if r.Serial() == 1 {
		t.Error("writer never rebuilt the zone")
	}
}

// sameSlice reports whether a and b are the same slice, not merely equal:
// the registry's answers are shared, so two routes to one answer must
// hand out the very same backing array.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (a == nil) == (b == nil) && (len(a) == 0 || &a[0] == &b[0])
}

// TestAnswerEqualsSeparateAccessors is the single-lock accessor's
// contract: at every point of a registration's life — pending, rebuilt
// into the zone, re-delegated, deleted, re-registered, each before and
// after the rebuild that makes it visible — and for every spelling of the
// name a caller might pass, Answer returns exactly what Delegation,
// InZone and WebAddrs return, slice for slice.
func TestAnswerEqualsSeparateAccessors(t *testing.T) {
	r, clk := newTestRegistry("com")
	defer r.Stop()
	names := []string{
		"x.com", "X.Com", "x.com.", "X.COM.", // exact name, every spelling
		"www.x.com", "a.b.x.com", "WWW.x.com.", // below the delegation
		"noweb.com", "www.noweb.com", // delegated, no web host
		"steady.com",                     // never mutated after its first rebuild
		"missing.com", "www.missing.com", // never registered
		"x.org", "www.x.org", "x.co", // foreign TLDs
		"com", "com.", "", ".", // the apex and the root
	}
	check := func(state string) {
		t.Helper()
		for _, n := range names {
			ns, ok := r.Delegation(n)
			want := Answer{NS: ns, Delegated: ok, InZone: r.InZone(n), A: r.WebAddrs(n)}
			got := r.Answer(n)
			if got.Delegated != want.Delegated || got.InZone != want.InZone ||
				!sameSlice(got.NS, want.NS) || !sameSlice(got.A, want.A) {
				t.Errorf("%s: Answer(%q) = %+v, separate accessors say %+v", state, n, got, want)
			}
		}
	}
	step := func(state string, mutate func() error) {
		t.Helper()
		if err := mutate(); err != nil {
			t.Fatalf("%s: %v", state, err)
		}
		check(state + " (pending)")
		clk.Advance(time.Minute)
		check(state + " (rebuilt)")
	}

	web1, web2 := netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2")
	check("empty registry")
	step("registered", func() error {
		r.Register("steady.com", "A", []string{"ns1.s.net"}, web1)
		r.Register("noweb.com", "A", []string{"ns1.a.net"}, netip.Addr{})
		_, err := r.Register("x.com", "A", []string{"ns2.a.net", "ns1.a.net"}, web1)
		return err
	})
	if ans := r.Answer("www.x.com"); !ans.Delegated || ans.InZone || ans.A != nil || len(ans.NS) != 2 {
		t.Errorf("subdomain of a delegated name: %+v", ans)
	}
	if ans := r.Answer("X.COM."); !ans.Delegated || !ans.InZone || len(ans.A) != 1 || ans.A[0] != web1 {
		t.Errorf("exact delegated name: %+v", ans)
	}
	step("UpdateNS", func() error { return r.UpdateNS("x.com", []string{"ns1.b.net"}) })
	step("deleted", func() error { return r.Delete("x.com") })
	if ans := r.Answer("x.com"); ans.Delegated || ans.InZone || ans.NS != nil || ans.A != nil {
		t.Errorf("deleted name still answers: %+v", ans)
	}
	step("re-registered", func() error {
		_, err := r.Register("x.com", "B", []string{"ns9.c.net"}, web2)
		return err
	})
	if ans := r.Answer("x.com"); len(ans.A) != 1 || ans.A[0] != web2 {
		t.Errorf("re-registered name answers the old web host: %+v", ans)
	}
	step("deleted and re-registered between rebuilds", func() error {
		if err := r.Delete("x.com"); err != nil {
			return err
		}
		_, err := r.Register("x.com", "C", []string{"ns1.d.net"}, web1)
		return err
	})

	if allocs := testing.AllocsPerRun(100, func() { r.Answer("x.com"); r.Answer("www.x.com"); r.Answer("x.org") }); allocs != 0 {
		t.Errorf("Answer allocates %v per three calls", allocs)
	}
}
