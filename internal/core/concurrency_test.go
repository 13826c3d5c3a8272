package core

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"darkdns/internal/certstream"
	"darkdns/internal/ct"
	"darkdns/internal/czds"
	"darkdns/internal/dnsname"
	"darkdns/internal/measure"
	"darkdns/internal/psl"
	"darkdns/internal/rdap"
	"darkdns/internal/simclock"
	"darkdns/internal/stream"
	"darkdns/internal/zoneset"
)

// synthEvents builds n certstream events over distinct registrable .shop
// names, a few of which collide on the same registered domain to exercise
// the duplicate path.
func synthEvents(n int, start time.Time) []certstream.Event {
	evs := make([]certstream.Event, n)
	for i := range evs {
		name := fmt.Sprintf("www.cand%06d.shop", i/2) // pairs collide
		evs[i] = certstream.Event{
			Seen: start.Add(time.Duration(i) * time.Second), Log: "race-log",
			Entry: ct.Entry{Kind: ct.PreCertificate, Issuer: "TestCA", CN: name},
		}
	}
	return evs
}

// TestConcurrentIngestRace drives HandleEvent from four goroutines while
// czds folds daily zone diffs and the simulated clock fires RDAP
// collections and fleet probe ticks — the full ingest hot path under
// -race.
func TestConcurrentIngestRace(t *testing.T) {
	clk := simclock.NewSim(t0)
	zones := czds.New()
	fleetCfg := measure.DefaultConfig()
	fleetCfg.StopWhenDead = true
	fleet := measure.NewFleet(fleetCfg, clk, staticBackend{})
	bus := stream.NewBus()

	cfg := DefaultConfig(t0, t0.Add(91*24*time.Hour))
	p := New(cfg, clk, psl.Default(), zones, nullQuerier{}, fleet, bus, 7)

	evs := synthEvents(4000, t0)
	const feeders = 4
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for _, ev := range evs[f*len(evs)/feeders : (f+1)*len(evs)/feeders] {
				p.HandleEvent(ev)
			}
		}(f)
	}
	// Daily zone collections race the ingest filters.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for day := 0; day < 30; day++ {
			d := zoneset.Diff{TLD: "shop", Serial: uint32(day + 1), Taken: t0.Add(time.Duration(day) * 24 * time.Hour),
				Added: []string{fmt.Sprintf("zoned%04d.shop", day)}}
			if day > 0 {
				d.Removed = []string{fmt.Sprintf("zoned%04d.shop", day-1)}
			}
			zones.Ingest(d)
		}
	}()
	// The clock dispatcher fires RDAP collections and probe ticks while
	// events are still being ingested.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			clk.Advance(10 * time.Minute)
		}
	}()
	wg.Wait()
	clk.Advance(49 * time.Hour) // drain the probe windows

	if p.Len() != 2000 {
		t.Fatalf("admitted %d candidates, want 2000 (one per colliding pair)", p.Len())
	}
	sum := p.Summary()
	if sum.Candidates != 2000 || sum.Watched == 0 {
		t.Fatalf("summary: %+v", sum)
	}
	if got := bus.Topic(cfg.FeedTopic).Len(); got != 2000 {
		t.Fatalf("feed published %d messages, want 2000", got)
	}
}

// hashQuerier answers deterministically by name so RDAP outcomes are a
// pure function of the domain: a rotating mix of ok / not-found /
// not-synced, the three §4.2 collection results.
type hashQuerier struct{}

func (hashQuerier) Domain(_ context.Context, name string) (*rdap.Record, error) {
	switch dnsname.Hash64(name) % 4 {
	case 0:
		return nil, rdap.ErrNotFound
	case 1:
		return nil, rdap.ErrNotSynced
	default:
		return &rdap.Record{Domain: name, Registrar: "Reg-" + name[:1], Registered: t0}, nil
	}
}

// TestDispatchMatchesSerialRDAP replays one corpus through step 2's one
// timer twice — handled serially and drained in one call, then handed to
// HandleEvent from four goroutines and drained a minute at a time — and
// requires identical candidate stores: RDAP outcomes, timestamps and
// validation bits included. Every per-candidate draw derives from the
// domain, so neither the caller that admits a candidate nor how the clock
// is driven may show in the result. This is step 2's determinism contract
// at the pipeline level.
func TestDispatchMatchesSerialRDAP(t *testing.T) {
	evs := synthEvents(1200, t0)

	run := func(feeders int, drain func(*simclock.Sim)) []Candidate {
		clk := simclock.NewSim(t0)
		cfg := DefaultConfig(t0, t0.Add(91*24*time.Hour))
		p := New(cfg, clk, psl.Default(), czds.New(), hashQuerier{}, nil, nil, 55)
		// Contiguous even-sized ranges keep each colliding pair on one
		// feeder, in order, so the same event of a pair wins admission.
		var wg sync.WaitGroup
		for f := 0; f < feeders; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				for _, ev := range evs[f*len(evs)/feeders : (f+1)*len(evs)/feeders] {
					p.HandleEvent(ev)
				}
			}(f)
		}
		wg.Wait()
		// Fire every queued RDAP collection: delays stay under 5 minutes.
		drain(clk)
		return p.Candidates()
	}

	want := run(1, func(clk *simclock.Sim) { clk.RunUntil(t0.Add(time.Hour)) })
	nOK := 0
	for _, c := range want {
		if c.RDAPOutcome == RDAPOK {
			nOK++
		}
	}
	if nOK == 0 {
		t.Fatal("degenerate corpus: no successful RDAP outcome")
	}
	got := run(4, func(clk *simclock.Sim) {
		for i := 0; i < 60; i++ {
			clk.Advance(time.Minute)
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Error("four feeders, stepped drain: candidates diverge from the serial run")
	}
}

// staticBackend answers every probe with a fixed delegation.
type staticBackend struct{}

func (staticBackend) AuthoritativeNS(string) ([]string, bool) {
	return []string{"ns1.static.net"}, true
}
func (staticBackend) LookupA(string) []netip.Addr    { return nil }
func (staticBackend) LookupAAAA(string) []netip.Addr { return nil }
