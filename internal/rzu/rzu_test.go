package rzu

import (
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"darkdns/internal/registry"
	"darkdns/internal/simclock"
)

var t0 = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

func newWorld(t *testing.T) (*Service, *registry.Registry, *simclock.Sim) {
	t.Helper()
	clk := simclock.NewSim(t0)
	reg := registry.New(registry.DefaultConfig("com"), clk, rand.New(rand.NewSource(1)))
	t.Cleanup(reg.Stop)
	svc := New(Config{Interval: 5 * time.Minute, Policy: AllowList{"researcher": true}})
	t.Cleanup(svc.Stop)
	svc.Publish(reg)
	return svc, reg, clk
}

func TestSubscribeRequiresAuthorization(t *testing.T) {
	svc, _, _ := newWorld(t)
	if err := svc.Subscribe("attacker", "com", func(Batch) {}); !errors.Is(err, ErrNotAuthorized) {
		t.Errorf("want ErrNotAuthorized, got %v", err)
	}
	if err := svc.Subscribe("researcher", "com", func(Batch) {}); err != nil {
		t.Errorf("vetted party refused: %v", err)
	}
	if err := svc.Subscribe("researcher", "org", func(Batch) {}); !errors.Is(err, ErrUnknownZone) {
		t.Errorf("want ErrUnknownZone, got %v", err)
	}
}

func TestBatchesCarryChangesWithinMinutes(t *testing.T) {
	svc, reg, clk := newWorld(t)
	var batches []Batch
	if err := svc.Subscribe("researcher", "com", func(b Batch) { batches = append(batches, b) }); err != nil {
		t.Fatal(err)
	}

	reg.Register("fast.com", "R", []string{"ns1.cloudflare.com"}, netip.Addr{})
	clk.Advance(5 * time.Minute)
	if len(batches) != 1 {
		t.Fatalf("batches = %d, want 1", len(batches))
	}
	if len(batches[0].Changes) != 1 || batches[0].Changes[0].Kind != Added || batches[0].Changes[0].Domain != "fast.com" {
		t.Fatalf("batch: %+v", batches[0])
	}
	// The RZU subscriber learned about the domain within 5 minutes of
	// registration — vs 24h for CZDS.
	if got := batches[0].Produced.Sub(t0); got > 5*time.Minute {
		t.Errorf("first batch at +%v", got)
	}

	// Deletion propagates as Removed.
	reg.Delete("fast.com")
	clk.Advance(5 * time.Minute)
	if len(batches) != 2 {
		t.Fatalf("batches after delete = %d", len(batches))
	}
	if batches[1].Changes[0].Kind != Removed {
		t.Errorf("second batch: %+v", batches[1])
	}
}

func TestModificationDetected(t *testing.T) {
	svc, reg, clk := newWorld(t)
	var batches []Batch
	svc.Subscribe("researcher", "com", func(b Batch) { batches = append(batches, b) })
	reg.Register("mod.com", "R", []string{"ns1.old.net"}, netip.Addr{})
	clk.Advance(5 * time.Minute)
	reg.UpdateNS("mod.com", []string{"ns1.new.net"})
	clk.Advance(5 * time.Minute)
	last := batches[len(batches)-1]
	if last.Changes[0].Kind != Modified || last.Changes[0].NS[0] != "ns1.new.net" {
		t.Fatalf("modification batch: %+v", last)
	}
}

func TestQuietPeriodsPublishNothing(t *testing.T) {
	svc, _, clk := newWorld(t)
	n := 0
	svc.Subscribe("researcher", "com", func(Batch) { n++ })
	clk.Advance(time.Hour)
	if n != 0 {
		t.Errorf("%d batches during quiet period", n)
	}
}

// TestFirstBatchAgainstEmptyZone: a zone published after names entered
// it reports them all as added in its first batch, and Stop ends the
// batches.
func TestFirstBatchAgainstEmptyZone(t *testing.T) {
	clk := simclock.NewSim(t0)
	reg := registry.New(registry.DefaultConfig("com"), clk, rand.New(rand.NewSource(1)))
	defer reg.Stop()
	reg.Register("early.com", "R", []string{"ns1.x.net"}, netip.Addr{})
	reg.Register("pending.com", "R", []string{"ns1.x.net"}, netip.Addr{})
	clk.Advance(time.Minute) // both enter the zone
	reg.Delete("pending.com")

	svc := New(Config{Interval: 5 * time.Minute, Policy: AllowList{"r": true}})
	svc.Publish(reg)
	var batches []Batch
	svc.Subscribe("r", "com", func(b Batch) { batches = append(batches, b) })
	clk.Advance(5 * time.Minute)
	if len(batches) != 1 || len(batches[0].Changes) != 1 || batches[0].Changes[0].Domain != "early.com" || batches[0].Changes[0].Kind != Added {
		t.Fatalf("first batch: %+v", batches)
	}
	svc.Stop()
	reg.Register("late.com", "R", []string{"ns1.x.net"}, netip.Addr{})
	clk.Advance(time.Hour)
	if len(batches) != 1 {
		t.Fatalf("%d batches after Stop", len(batches)-1)
	}
}

func TestTransientVisibleToRZUButNotCZDS(t *testing.T) {
	// The paper's core argument: a domain alive for 3 hours between two
	// daily snapshots is invisible to CZDS but fully visible (creation
	// AND removal) to a 5-minute RZU subscriber.
	svc, reg, clk := newWorld(t)
	var added, removed bool
	svc.Subscribe("researcher", "com", func(b Batch) {
		for _, c := range b.Changes {
			if c.Domain == "transient.com" {
				switch c.Kind {
				case Added:
					added = true
				case Removed:
					removed = true
				}
			}
		}
	})
	clk.Advance(2 * time.Hour)
	reg.Register("transient.com", "GoDaddy", []string{"ns1.cloudflare.com"}, netip.Addr{})
	clk.Advance(3 * time.Hour)
	reg.Delete("transient.com")
	clk.Advance(time.Hour)
	if !added || !removed {
		t.Fatalf("RZU missed the transient: added=%v removed=%v", added, removed)
	}
}

func TestChangeKindStrings(t *testing.T) {
	if Added.String() != "added" || Removed.String() != "removed" ||
		Modified.String() != "modified" || ChangeKind(9).String() != "unknown" {
		t.Error("kind strings")
	}
}
