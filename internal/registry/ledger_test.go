package registry

import (
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestRegistrationStaysCompact: Ledger and RDAPLookupAt copy registrations
// by value, so the inline NS and answer storage lives in the ledger's
// blocks, not in Registration, which stays 192 bytes.
func TestRegistrationStaysCompact(t *testing.T) {
	if got := reflect.TypeOf(Registration{}).Size(); got != 192 {
		t.Errorf("Registration is %d bytes, want 192", got)
	}
}

// TestLedgerAllocations pins the ledger's mutations: a name's first
// registration (record, registration, answer and both NS arrays) takes
// one block from the registry's slab, so it costs at most 0.05
// allocations — one per chunk of blocks, plus the ledger map's growth —
// and a re-registration (the same block without the record) and an NS
// update (a fresh answer with its arrays) allocate one block each, at
// most 1.01 with the maps' growth. Each is averaged over 20 runs of
// 1 000 names.
func TestLedgerAllocations(t *testing.T) {
	const n, runs = 1_000, 20
	r, _ := newTestRegistry("com")
	defer r.Stop()
	names := make([]string, (runs+1)*n) // AllocsPerRun makes one warm-up pass
	for i := range names {
		names[i] = domainName(i)
	}
	ns := []string{"ns1.a.net", "ns2.a.net"}
	alt := []string{"ns2.b.net", "ns1.b.net"}
	web := netip.MustParseAddr("192.0.2.1")
	// pass applies op to runs batches of n fresh names, after a warm-up
	// batch of n others, and returns the allocations per name.
	pass := func(op func(name string)) float64 {
		next := names
		return testing.AllocsPerRun(runs, func() {
			for _, name := range next[:n] {
				op(name)
			}
			next = next[n:]
		}) / n
	}
	register := func(name string) {
		if _, err := r.RegisterAt(name, "A", ns, web, t0); err != nil {
			t.Fatal(err)
		}
	}
	if got := pass(register); got > 0.05 {
		t.Errorf("RegisterAt of a fresh name allocates %v times, want at most 0.05", got)
	}
	if got := pass(func(name string) {
		if err := r.UpdateNS(name, alt); err != nil {
			t.Fatal(err)
		}
	}); got > 1.01 {
		t.Errorf("UpdateNS allocates %v times, want at most 1.01", got)
	}
	now := t0.Add(time.Minute)
	r.rebuildAt(now)
	for _, name := range names {
		if err := r.DeleteAt(name, now); err != nil {
			t.Fatal(err)
		}
	}
	// Rebuilt out of the zone first, so a re-registration republishes no
	// answer on its way in.
	r.rebuildAt(now.Add(time.Minute))
	if got := pass(register); got > 1.01 {
		t.Errorf("re-registration allocates %v times, want at most 1.01", got)
	}
	if got := len(slices.Collect(r.Ledger())); got != 2*len(names) {
		t.Fatalf("ledger holds %d registrations, want %d", got, 2*len(names))
	}
}

// TestWritesToReturnedNSReachNothingElse writes the NS slice of a
// registration RegisterAt returned, after a re-registration and again
// after an UpdateNS, for an NS set held inline and for one too long to
// be: no other registration's NS, no published answer and no answer a
// reader already holds may move.
func TestWritesToReturnedNSReachNothingElse(t *testing.T) {
	for _, sets := range [][2][]string{
		{{"ns2.a.net", "ns1.a.net"}, {"ns1.b.net", "ns2.b.net"}},
		{{"ns3.a.net", "ns1.a.net", "ns2.a.net"}, {"ns1.b.net", "ns3.b.net", "ns2.b.net"}},
	} {
		r, _ := newTestRegistry("com")
		first, second := sets[0], sets[1]
		wantFirst, wantSecond := slices.Clone(first), slices.Clone(second)
		sortedFirst, sortedSecond := slices.Sorted(slices.Values(first)), slices.Sorted(slices.Values(second))
		now := t0
		step := func() {
			now = now.Add(time.Minute)
			r.rebuildAt(now)
		}

		old, err := r.RegisterAt("a.com", "A", first, netip.Addr{}, now)
		if err != nil {
			t.Fatal(err)
		}
		other, err := r.RegisterAt("b.com", "A", first, netip.Addr{}, now)
		if err != nil {
			t.Fatal(err)
		}
		step()
		oldAnswer := r.Answer("a.com")
		if err := r.DeleteAt("a.com", now); err != nil {
			t.Fatal(err)
		}
		step()
		reg, err := r.RegisterAt("a.com", "B", first, netip.Addr{}, now)
		if err != nil {
			t.Fatal(err)
		}
		step()
		live := r.Answer("a.com")

		check := func(when string, newest []string) {
			t.Helper()
			switch {
			case !slices.Equal(first, wantFirst) || !slices.Equal(second, wantSecond):
				t.Errorf("%s: the caller's NS sets moved: %v, %v", when, first, second)
			case !slices.Equal(old.NS, wantFirst):
				t.Errorf("%s: the superseded registration's NS moved: %v", when, old.NS)
			case !slices.Equal(other.NS, wantFirst):
				t.Errorf("%s: another name's registration's NS moved: %v", when, other.NS)
			case !slices.Equal(oldAnswer.NS, sortedFirst) || !slices.Equal(live.NS, sortedFirst):
				t.Errorf("%s: an answer a reader held moved: %v, %v", when, oldAnswer.NS, live.NS)
			}
			if ns, _ := r.Delegation("b.com"); !slices.Equal(ns, sortedFirst) {
				t.Errorf("%s: b.com delegates to %v, want %v", when, ns, sortedFirst)
			}
			if ns, _ := r.Delegation("a.com"); !slices.Equal(ns, newest) {
				t.Errorf("%s: a.com delegates to %v, want %v", when, ns, newest)
			}
			for e := range r.Ledger() {
				if e.Domain == "a.com" && e.Registrar == "A" && !slices.Equal(e.NS, wantFirst) {
					t.Errorf("%s: the ledger's superseded entry holds %v", when, e.NS)
				}
			}
		}

		held := reg.NS
		reg.NS[0] = "ns1.hijacked.example"
		check("after a write to a re-registration's NS", sortedFirst)

		if err := r.UpdateNS("a.com", second); err != nil {
			t.Fatal(err)
		}
		held[1] = "ns2.hijacked.example" // the NS the caller held before the update
		reg.NS[len(reg.NS)-1] = "ns3.hijacked.example"
		check("after writes to NS before the update's rebuild", sortedFirst)
		step()
		updated := r.Answer("a.com")
		reg.NS[0] = "ns4.hijacked.example"
		check("after writes to an updated registration's NS", sortedSecond)
		if !slices.Equal(updated.NS, sortedSecond) {
			t.Errorf("the updated answer a reader held moved: %v", updated.NS)
		}
		r.Stop()
	}
}
