package registry

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
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
	// Every name is resolved before it is ever registered, the way a fleet
	// watches a name it saw in CT first; the readers also resolve names
	// below them, and names the writer never registers, while it runs.
	var handles [names]Handle
	for i := range handles {
		handles[i] = r.Resolve(domainName(i))
	}
	// Readers also register notifiers while the writer publishes, the way
	// a fleet subscribes each watch as it admits it: once a reader and
	// handle, so the callbacks the writer runs stay bounded. One notifier
	// a handle is registered before any of it starts, so the writer always
	// has callbacks to run, however the readers are scheduled.
	var notified [names]atomic.Int64
	for i := range handles {
		n := &notified[i]
		handles[i].Notify(func() { n.Add(1) })
	}
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
				if i < g+names {
					n := &notified[i%names]
					handles[i%names].Notify(func() { n.Add(1) })
					r.Resolve("www." + d).Notify(func() { n.Add(1) })
				}
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
				if ans := handles[i%names].Answer(); ans.InZone && (!ans.Delegated || len(ans.NS) == 0) {
					t.Errorf("%s in zone but its handle answered %+v", d, ans)
				}
				r.Resolve("www." + d).Answer()
				r.Resolve(domainName(names + i%names)).Answer()
				r.Lookup(d)
				r.RDAPLookupAt(d, t0.Add(time.Hour))
				r.Serial()
				for range r.Ledger() {
				}
			}
		}(g)
	}
	// The writer owns the clock: Register/Delete stamp Now, and rebuildAt
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
		r.rebuildAt(now)
	}
	close(stop)
	wg.Wait()
	if r.Serial() == 1 {
		t.Error("writer never rebuilt the zone")
	}
	var calls int64
	for i := range notified {
		calls += notified[i].Load()
	}
	if calls == 0 {
		t.Error("no notifier was ever called")
	}
}

// TestHandleNotifiesOnEveryAnswerChange is Handle.Notify's contract over
// random sequences of registrations, re-delegations, re-registrations
// with a new web host, deletions and zone rebuilds: whenever a handle's
// Answer differs between two checkpoints (one after every operation), its
// notifier ran in between, with the registry's lock held. It covers exact
// handles and handles on a name below the registrable one, handles
// resolved before the name was ever registered and after, and two
// handles on one record, each with its own notifier.
func TestHandleNotifiesOnEveryAnswerChange(t *testing.T) {
	webs := []netip.Addr{{}, netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2")}
	nsSets := [][]string{{"ns1.a.net", "ns2.a.net"}, {"ns1.b.net"}}
	for seed := int64(1); seed <= 40; seed++ {
		r, _ := newTestRegistry("com")
		rng := rand.New(rand.NewSource(seed))
		type watched struct {
			name  string
			h     Handle
			calls int
			last  Answer
		}
		var hs []*watched
		watch := func(name string) {
			w := &watched{name: name, h: r.Resolve(name)}
			w.last = w.h.Answer()
			w.h.Notify(func() {
				if r.mu.TryRLock() {
					r.mu.RUnlock()
					t.Errorf("%s notified without the registry's lock", name)
				}
				w.calls++
			})
			hs = append(hs, w)
		}
		const names = 4
		for i := 0; i < names; i++ {
			d := domainName(i)
			watch(d)
			watch(d) // a second handle on the same record
			watch("www." + d)
		}
		now := t0
		for step := 0; step < 120; step++ {
			d := domainName(rng.Intn(names))
			var op string
			switch rng.Intn(6) {
			case 0, 1:
				op = "register"
				r.RegisterAt(d, "A", nsSets[rng.Intn(len(nsSets))], webs[rng.Intn(len(webs))], now)
			case 2:
				op = "update-ns"
				r.UpdateNS(d, nsSets[rng.Intn(len(nsSets))])
			case 3:
				op = "delete"
				r.DeleteAt(d, now)
			case 4:
				op = "rebuild"
				now = now.Add(time.Minute)
				r.rebuildAt(now)
			case 5:
				op = "resolve"
				watch([]string{d, "www." + d}[rng.Intn(2)])
			}
			for _, w := range hs {
				ans := w.h.Answer()
				if !reflect.DeepEqual(ans, w.last) && w.calls == 0 {
					t.Fatalf("seed %d step %d (%s %s): %s answer moved %+v → %+v with no notification",
						seed, step, op, d, w.name, w.last, ans)
				}
				w.last, w.calls = ans, 0
			}
		}
		r.Stop()
	}
}

// sameSlice reports whether a and b are the same slice, not merely equal:
// the registry's answers are shared, so two routes to one answer must
// hand out the very same backing array.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (a == nil) == (b == nil) && (len(a) == 0 || &a[0] == &b[0])
}

// TestAnswerEqualsSeparateAccessors is the handle's contract: at every
// point of a registration's life — pending, rebuilt into the zone,
// re-delegated, deleted, re-registered, each before and after the rebuild
// that makes it visible — Answer on a Handle returns exactly what
// Registry.Answer returns, slice for slice, whether the handle was
// resolved before the name was ever registered or at that step.
// Delegation, InZone and WebAddrs are views of Answer;
// FuzzRebuildsMatchCadence holds all of them, for every spelling of a
// name, to a model of the zone.
func TestAnswerEqualsSeparateAccessors(t *testing.T) {
	r, clk := newTestRegistry("com")
	defer r.Stop()
	names := []string{
		"x.com", "X.COM.", "www.x.com", // the name and one below it
		"noweb.com", "www.noweb.com", // delegated, no web host
		"steady.com",                     // never mutated after its first rebuild
		"missing.com", "www.missing.com", // never registered
		"x.org", "", // a foreign TLD and the root
	}
	early := make([]Handle, len(names)) // watched before registration
	for i, n := range names {
		early[i] = r.Resolve(n)
	}
	same := func(a, b Answer) bool {
		return a.Delegated == b.Delegated && a.InZone == b.InZone && sameSlice(a.NS, b.NS) && sameSlice(a.A, b.A)
	}
	check := func(state string) {
		t.Helper()
		for i, n := range names {
			got := r.Answer(n)
			if h := early[i].Answer(); !same(h, got) {
				t.Errorf("%s: handle resolved before registration answers %q with %+v, Answer says %+v", state, n, h, got)
			}
			if h := r.Resolve(n).Answer(); !same(h, got) {
				t.Errorf("%s: handle resolved now answers %q with %+v, Answer says %+v", state, n, h, got)
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
	if allocs := testing.AllocsPerRun(100, func() {
		for _, h := range early {
			h.Answer()
		}
	}); allocs != 0 {
		t.Errorf("handle reads allocate %v per pass over %d handles", allocs, len(early))
	}
	// Resolving names no one registered created ledger records for them;
	// none of that is ground truth.
	if _, ok := r.Lookup("missing.com"); ok {
		t.Error("a resolved, never-registered name shows up in Lookup")
	}
	for reg := range r.Ledger() {
		if reg.Domain != "x.com" && reg.Domain != "noweb.com" && reg.Domain != "steady.com" {
			t.Errorf("ledger holds %q, which was resolved but never registered", reg.Domain)
		}
	}
}

// TestLockFreeReadsSeeOnlyPublishedAnswers is the -race workout for the
// handle's lock-free read: four goroutines read every name through its
// handles and through Registry.Answer while one writer registers,
// re-delegates, deletes, re-registers between rebuilds and rebuilds the
// zone. Every answer a reader sees must be one the record really held —
// an NS set the writer delegated, an A answer of one of the name's
// registrations, and never InZone without Delegated. At every step of the
// writer's timeline a handle and Registry.Answer agree slice for slice,
// and both agree with the ledger's ground truth: a name is delegated
// exactly while one of its registrations has entered the zone and not
// left it (InZoneAt set, OutOfZoneAt zero), its A answer is then the
// newest registration's web host, and after a rebuild its NS set is the
// newest registration's, sorted.
func TestLockFreeReadsSeeOnlyPublishedAnswers(t *testing.T) {
	r, _ := newTestRegistry("com")
	defer r.Stop()
	const names = 32
	nsSets := [][]string{{"ns1.a.net", "ns2.a.net"}, {"ns1.b.net"}}
	webs := func(i int) [2]netip.Addr {
		return [2]netip.Addr{netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}), netip.AddrFrom4([4]byte{198, 51, 100, byte(i)})}
	}
	invalid := func(i int, ans Answer, exact bool) string {
		switch {
		case ans.InZone && !ans.Delegated:
			return "in zone but not delegated"
		case ans.InZone != (exact && ans.Delegated):
			return "InZone disagrees with the name's delegation"
		case !ans.Delegated && (ans.NS != nil || ans.A != nil):
			return "answers without a delegation"
		case ans.Delegated && !slices.ContainsFunc(nsSets, func(ns []string) bool { return slices.Equal(ns, ans.NS) }):
			return "an NS set the writer never delegated"
		case !exact && ans.A != nil:
			return "an A answer for a name below the delegation"
		case ans.A != nil && (len(ans.A) != 1 || (ans.A[0] != webs(i)[0] && ans.A[0] != webs(i)[1])):
			return "an A answer none of the name's registrations had"
		}
		return ""
	}
	exact, below := make([]Handle, names), make([]Handle, names)
	for i := range exact {
		exact[i], below[i] = r.Resolve(domainName(i)), r.Resolve("www."+domainName(i))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i = (i + 1) % names {
				select {
				case <-stop:
					return
				default:
				}
				d := domainName(i)
				for _, c := range []struct {
					ans   Answer
					exact bool
				}{{exact[i].Answer(), true}, {below[i].Answer(), false}, {r.Answer(d), true}, {r.Answer("www." + d), false}} {
					if why := invalid(i, c.ans, c.exact); why != "" {
						t.Errorf("%s: %s: %+v", d, why, c.ans)
						return
					}
				}
			}
		}(g)
	}

	same := func(a, b Answer) bool {
		return a.Delegated == b.Delegated && a.InZone == b.InZone && sameSlice(a.NS, b.NS) && sameSlice(a.A, b.A)
	}
	// truth is what the ledger says domainName(i) answers: rebuilt says
	// no change is pending, so the zone holds the newest NS set.
	truth := func(i int, rebuilt bool) (delegated bool, ns []string, a []netip.Addr) {
		d := domainName(i)
		r.mu.RLock()
		rec := r.ledger[d]
		for reg := rec.newest; reg != nil; reg = reg.prev {
			if !reg.InZoneAt.IsZero() && reg.OutOfZoneAt.IsZero() {
				delegated = true
			}
		}
		r.mu.RUnlock()
		newest, ok := r.Lookup(d)
		if !delegated || !ok {
			return delegated, nil, nil
		}
		if rebuilt {
			ns = slices.Sorted(slices.Values(newest.NS))
		}
		if newest.WebAddr.IsValid() {
			a = []netip.Addr{newest.WebAddr}
		}
		return delegated, ns, a
	}
	check := func(step string, i int, rebuilt bool) {
		t.Helper()
		delegated, ns, a := truth(i, rebuilt)
		for _, n := range []string{domainName(i), "WWW." + domainName(i)} {
			exactName := n == domainName(i)
			got := r.Answer(n)
			wantA := a
			if !exactName {
				wantA = nil
			}
			switch {
			case got.Delegated != delegated || got.InZone != (delegated && exactName):
				t.Errorf("%s: Answer(%q) = %+v; the ledger says delegated=%v", step, n, got, delegated)
			case rebuilt && !slices.Equal(got.NS, ns):
				t.Errorf("%s: Answer(%q).NS = %v; the newest registration's NS sorted is %v", step, n, got.NS, ns)
			case !slices.Equal(got.A, wantA):
				t.Errorf("%s: Answer(%q).A = %v; the newest registration's host says %v", step, n, got.A, wantA)
			}
			if h := r.Resolve(n).Answer(); !same(h, got) {
				t.Errorf("%s: Resolve(%q).Answer() = %+v, Answer says %+v", step, n, h, got)
			}
		}
		if ans := exact[i].Answer(); !same(ans, r.Answer(domainName(i))) {
			t.Errorf("%s: the early handle of %s answers %+v", step, domainName(i), ans)
		}
	}
	now := t0
	for round := 0; round < 60; round++ {
		for i := 0; i < names; i++ {
			d := domainName(i)
			step := fmt.Sprintf("round %d, %s", round, d)
			switch (round + i) % 5 {
			case 0:
				r.RegisterAt(d, "A", nsSets[0], webs(i)[0], now)
			case 1:
				r.UpdateNS(d, nsSets[1])
			case 2: // deleted and re-registered while still delegated
				r.DeleteAt(d, now)
				check(step+" deleted", i, false)
				web := webs(i)[1]
				if round%2 == 1 {
					web = netip.Addr{}
				}
				r.RegisterAt(d, "B", nsSets[round%2], web, now)
			case 3:
				r.DeleteAt(d, now)
			}
			check(step, i, false)
		}
		now = now.Add(time.Minute)
		r.rebuildAt(now)
		for i := 0; i < names; i++ {
			check(fmt.Sprintf("round %d rebuilt", round), i, true)
		}
	}
	close(stop)
	wg.Wait()
}
