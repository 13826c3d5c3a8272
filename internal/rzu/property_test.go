package rzu

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"darkdns/internal/registry"
	"darkdns/internal/simclock"
)

// The oracle clones the zone at every tick, so no rebuild may share a
// tick's instant: a rebuild cadence of a prime number of seconds meets
// the 5-minute tick grid only 433 ticks (36 h) after the two grids last
// met, past the horizon.
const (
	interval     = 5 * time.Minute
	rebuildEvery = 433 * time.Second
	horizon      = 30 * time.Hour
)

// FuzzBatchesEqualZoneClones drives one registry through a timeline the
// input spells — registrations, deletions, re-registrations, NS updates
// and clock steps, some names delegated before the service publishes the
// zone — and holds the service's batches to two references:
//
//   - the diff of test-side zone clones, each driven name's delegation
//     read through Registry.Delegation at every tick, between that tick
//     and the one before, the first against the empty zone: every
//     non-empty diff is one batch, with the tick's serial and instant and
//     each added or modified name's NS set, and an empty one is none;
//   - the ledger's zone intervals: each batch's Added and Removed are the
//     names that enter and leave the set whose registrations'
//     [InZoneAt, OutOfZoneAt) intervals hold the tick, against the one
//     before — the rule analysis's RZU what-if counts visible domains by.
func FuzzBatchesEqualZoneClones(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		prog := make([]byte, 48)
		rand.New(rand.NewSource(seed)).Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		checkBatches(t, prog)
	})
}

// TestBatchesOverLongTimelines runs the fuzz target's property over six
// 400-step random timelines.
func TestBatchesOverLongTimelines(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		prog := make([]byte, 800)
		rand.New(rand.NewSource(seed)).Read(prog)
		checkBatches(t, prog)
	}
}

// zoneClone is the test's copy of the zone at one tick.
type zoneClone struct {
	serial uint32
	taken  time.Time
	ns     map[string][]string
}

func checkBatches(t *testing.T, prog []byte) {
	if len(prog) < 1 {
		return
	}
	clk := simclock.NewSim(t0)
	cfg := registry.DefaultConfig("com")
	cfg.ZoneUpdateEvery = rebuildEvery
	reg := registry.New(cfg, clk, rand.New(rand.NewSource(1)))
	defer reg.Stop()

	names := make([]string, 10)
	for i := range names {
		names[i] = fmt.Sprintf("n%02d.com", i)
	}
	nsSets := [][]string{{"ns1.a.net"}, {"ns1.b.net", "ns2.b.net"}, {"NS2.c.net.", "ns1.c.net"}}

	// Names delegated before the service starts must arrive as added in
	// its first batch. Starting a whole number of rebuild periods after the
	// registry keeps the tick grid off the rebuild grid.
	for i := range int(prog[0] % 4) {
		reg.Register(names[i], "R", nsSets[i%len(nsSets)], netip.Addr{})
	}
	clk.Advance(time.Duration(prog[0]/4%3) * rebuildEvery)

	svc := New(Config{Interval: interval, Policy: AllowList{"r": true}})
	defer svc.Stop()
	svc.Publish(reg)
	var batches []Batch
	if err := svc.Subscribe("r", "com", func(b Batch) { batches = append(batches, b) }); err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	clones := []zoneClone{{taken: start, ns: map[string][]string{}}} // the empty zone the first batch is taken against
	oracle := simclock.NewTicker(clk, interval, func(now time.Time) {
		c := zoneClone{serial: reg.Serial(), taken: now, ns: make(map[string][]string)}
		for _, name := range names {
			if ns, ok := reg.Delegation(name); ok {
				c.ns[name] = ns
			}
		}
		clones = append(clones, c)
	})
	defer oracle.Stop()

	for i := 1; i+1 < len(prog) && clk.Now().Before(start.Add(horizon)); i += 2 {
		op, arg := prog[i], int(prog[i+1])
		name := names[arg%len(names)]
		ns := nsSets[arg/len(names)%len(nsSets)]
		switch op % 6 {
		case 0, 1:
			reg.Register(name, "R", ns, netip.Addr{})
		case 2:
			reg.Delete(name)
		case 3:
			reg.UpdateNS(name, ns)
		case 4:
			clk.Advance(time.Duration(arg) * 3 * time.Second)
		case 5:
			clk.Advance(time.Duration(arg%30+1) * time.Minute)
		}
	}
	clk.Advance(2 * interval) // the last changes' rebuild and tick

	// Reference 1: the diffs of consecutive clones.
	next := 0
	for k := 1; k < len(clones); k++ {
		want := diffClones(clones[k-1], clones[k])
		if len(want) == 0 {
			if next < len(batches) && batches[next].Produced.Equal(clones[k].taken) {
				t.Fatalf("tick %d at %v: batch %+v, clones unchanged", k, clones[k].taken, batches[next])
			}
			continue
		}
		if next >= len(batches) {
			t.Fatalf("tick %d at %v: no batch, clones give %+v", k, clones[k].taken, want)
		}
		b := batches[next]
		next++
		if b.TLD != "com" || b.Serial != clones[k].serial || !b.Produced.Equal(clones[k].taken) || !sameChanges(b.Changes, want) {
			t.Fatalf("tick %d: batch %s serial %d at %v %+v, clones give serial %d at %v %+v",
				k, b.TLD, b.Serial, b.Produced, b.Changes, clones[k].serial, clones[k].taken, want)
		}
	}
	if next != len(batches) {
		t.Fatalf("%d batches, clones account for %d", len(batches), next)
	}

	// Reference 2: the ledger's zone intervals at each batch's tick and the
	// one before.
	var ledger []registry.Registration
	for r := range reg.Ledger() {
		ledger = append(ledger, r)
	}
	inZone := func(at time.Time) map[string]bool {
		set := make(map[string]bool)
		if at.Equal(start) {
			return set // the first batch is taken against the empty zone
		}
		for _, r := range ledger {
			if !r.InZoneAt.IsZero() && !r.InZoneAt.After(at) && (r.OutOfZoneAt.IsZero() || r.OutOfZoneAt.After(at)) {
				set[r.Domain] = true
			}
		}
		return set
	}
	for _, b := range batches {
		cur, prev := inZone(b.Produced), inZone(b.Produced.Add(-interval))
		var added, removed, gotAdded, gotRemoved []string
		for name := range cur {
			if !prev[name] {
				added = append(added, name)
			}
		}
		for name := range prev {
			if !cur[name] {
				removed = append(removed, name)
			}
		}
		for _, c := range b.Changes {
			switch c.Kind {
			case Added:
				gotAdded = append(gotAdded, c.Domain)
			case Removed:
				gotRemoved = append(gotRemoved, c.Domain)
			}
		}
		slices.Sort(added)
		slices.Sort(removed)
		if !slices.Equal(gotAdded, added) || !slices.Equal(gotRemoved, removed) {
			t.Fatalf("batch at %v adds %v and removes %v; the ledger's zone intervals add %v and remove %v",
				b.Produced, gotAdded, gotRemoved, added, removed)
		}
	}
}

// diffClones is the change from old to cur as a batch would list it:
// sorted by domain, each added or modified name with its NS set in cur.
func diffClones(old, cur zoneClone) []Change {
	var out []Change
	for name, ns := range cur.ns {
		switch prev, ok := old.ns[name]; {
		case !ok:
			out = append(out, Change{Kind: Added, Domain: name, NS: ns})
		case !slices.Equal(prev, ns):
			out = append(out, Change{Kind: Modified, Domain: name, NS: ns})
		}
	}
	for name := range old.ns {
		if _, ok := cur.ns[name]; !ok {
			out = append(out, Change{Kind: Removed, Domain: name})
		}
	}
	slices.SortFunc(out, func(a, b Change) int { return strings.Compare(a.Domain, b.Domain) })
	return out
}

func sameChanges(a, b []Change) bool {
	return slices.EqualFunc(a, b, func(x, y Change) bool {
		return x.Kind == y.Kind && x.Domain == y.Domain && slices.Equal(x.NS, y.NS)
	})
}
