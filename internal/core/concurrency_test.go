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
// czds collections swap zone views and the simulated clock fires RDAP
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
			snap := zoneset.NewSnapshot("shop", uint32(day+1), t0.Add(time.Duration(day)*24*time.Hour))
			snap.Add(fmt.Sprintf("zoned%04d.shop", day), []string{"ns1.zone.net"})
			zones.Ingest(snap)
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

// hashQuerierAt is hashQuerier with the time-explicit extension: the
// step-2 timer then carries the candidate's domain tag and the lookup
// goes through DomainAt.
type hashQuerierAt struct{ hashQuerier }

func (q hashQuerierAt) DomainAt(ctx context.Context, name string, _ time.Time) (*rdap.Record, error) {
	return q.Domain(ctx, name)
}

// TestDispatchMatchesSerialRDAP replays one corpus through step 2's one
// timer — untagged (a querier that reads the clock) and tagged (a
// time-explicit querier), both also under a lookahead drain, which fires
// the tagged lookups ahead of committed time — advancing the clock
// through every queueing delay, and requires identical candidate stores:
// RDAP outcomes, timestamps and validation bits included. This is step
// 2's determinism contract at the pipeline level.
func TestDispatchMatchesSerialRDAP(t *testing.T) {
	evs := synthEvents(1200, t0)

	run := func(q rdap.Querier, window int) ([]Candidate, simclock.Stats) {
		clk := simclock.NewSim(t0)
		cfg := DefaultConfig(t0, t0.Add(91*24*time.Hour))
		p := New(cfg, clk, psl.Default(), czds.New(), q, nil, nil, 55)
		for _, ev := range evs {
			p.HandleEvent(ev)
		}
		// Fire every queued RDAP collection: delays stay under 5 minutes.
		clk.RunUntilLookahead(t0.Add(time.Hour), window, 8)
		return p.Candidates(), clk.Stats()
	}

	want, _ := run(hashQuerier{}, 0)
	nOK := 0
	for _, c := range want {
		if c.RDAPOutcome == RDAPOK {
			nOK++
		}
	}
	if nOK == 0 {
		t.Fatal("degenerate corpus: no successful RDAP outcome")
	}
	for _, row := range []struct {
		name   string
		q      rdap.Querier
		window int
	}{
		{"untagged timer under lookahead", hashQuerier{}, 8},
		{"tagged timer", hashQuerierAt{}, 0},
		{"tagged timer under lookahead", hashQuerierAt{}, 8},
	} {
		got, st := run(row.q, row.window)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: candidates diverge from the untagged serial timer", row.name)
		}
		_, tagged := row.q.(rdap.QuerierAt)
		if row.window > 0 && tagged != (st.SpecFired > 0) {
			t.Errorf("%s: SpecFired = %d, want > 0 exactly when the querier is time-explicit", row.name, st.SpecFired)
		}
	}
}

// staticBackend answers every probe with a fixed delegation.
type staticBackend struct{}

func (staticBackend) AuthoritativeNS(string) ([]string, bool) {
	return []string{"ns1.static.net"}, true
}
func (staticBackend) LookupA(string) []netip.Addr    { return nil }
func (staticBackend) LookupAAAA(string) []netip.Addr { return nil }
