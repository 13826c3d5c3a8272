package registry

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"darkdns/internal/simclock"
)

// TestPropertyLedgerInvariants drives a registry with a random operation
// sequence — new names, re-registrations of deleted ones, deletions and
// clock advances — and checks structural invariants that must hold
// regardless of schedule: creation precedes deletion, zone entry precedes
// zone exit, a deleted registration that entered the zone has left it
// after the next rebuild, zone membership matches ledger liveness after a
// rebuild, and the live zone only ever contains active registrations.
func TestPropertyLedgerInvariants(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clk := simclock.NewSim(t0)
			r := New(DefaultConfig("com"), clk, rand.New(rand.NewSource(seed+100)))
			defer r.Stop()

			active := make(map[string]bool)
			var pool []string
			register := func(d string) {
				if _, err := r.Register(d, "R", []string{"ns1.x.net"}, netip.Addr{}); err != nil {
					t.Fatalf("register %s: %v", d, err)
				}
				active[d] = true
			}
			for step := 0; step < 400; step++ {
				switch rng.Intn(5) {
				case 0, 1: // register a new name
					d := fmt.Sprintf("p%d-%d.com", seed, step)
					register(d)
					pool = append(pool, d)
				case 2: // re-register a deleted name, often within one rebuild interval
					if len(pool) > 0 {
						if d := pool[rng.Intn(len(pool))]; !active[d] {
							register(d)
						}
					}
				case 3: // delete a random active domain
					if len(pool) > 0 {
						d := pool[rng.Intn(len(pool))]
						if active[d] {
							if err := r.Delete(d); err != nil {
								t.Fatalf("delete active %s: %v", d, err)
							}
							active[d] = false
						}
					}
				case 4: // advance time (zone rebuilds fire)
					clk.Advance(time.Duration(rng.Intn(180)) * time.Second)
				}
			}
			clk.Advance(2 * time.Minute) // final rebuild

			var reregistered int
			seen := make(map[string]bool)
			for _, entry := range r.Ledger() {
				if seen[entry.Domain] {
					reregistered++
				}
				seen[entry.Domain] = true
				if !entry.Deleted.IsZero() && entry.Deleted.Before(entry.Created) {
					t.Fatalf("%s deleted before created", entry.Domain)
				}
				if !entry.OutOfZoneAt.IsZero() && entry.InZoneAt.IsZero() {
					t.Fatalf("%s left the zone without entering it", entry.Domain)
				}
				if !entry.OutOfZoneAt.IsZero() && entry.OutOfZoneAt.Before(entry.InZoneAt) {
					t.Fatalf("%s zone interval inverted", entry.Domain)
				}
				if !entry.InZoneAt.IsZero() && entry.InZoneAt.Before(entry.Created) {
					t.Fatalf("%s in zone before creation", entry.Domain)
				}
				if !entry.Deleted.IsZero() && !entry.InZoneAt.IsZero() && entry.OutOfZoneAt.IsZero() {
					t.Fatalf("%s deleted at %v, entered the zone at %v, never left it", entry.Domain, entry.Deleted, entry.InZoneAt)
				}
			}
			if reregistered == 0 {
				t.Fatal("schedule re-registered nothing")
			}
			// After the final rebuild, zone membership equals liveness.
			for d, live := range active {
				if r.InZone(d) != live {
					t.Fatalf("%s: InZone=%v, ledger-live=%v", d, r.InZone(d), live)
				}
			}
		})
	}
}

// TestPropertySerialMonotone checks the SOA serial never decreases across
// arbitrary schedules.
func TestPropertySerialMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	clk := simclock.NewSim(t0)
	r := New(DefaultConfig("net"), clk, rand.New(rand.NewSource(6)))
	defer r.Stop()
	last := r.Serial()
	for i := 0; i < 300; i++ {
		if rng.Intn(2) == 0 {
			r.Register(fmt.Sprintf("s%d.net", i), "R", []string{"ns1.x.net"}, netip.Addr{})
		}
		clk.Advance(time.Duration(rng.Intn(120)) * time.Second)
		if s := r.Serial(); s < last {
			t.Fatalf("serial regressed: %d → %d", last, s)
		} else {
			last = s
		}
	}
}
