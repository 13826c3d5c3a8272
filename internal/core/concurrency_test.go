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
	"darkdns/internal/worldsim"
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

// TestConcurrentIngestRace drives HandleEvent and HandleBatch from many
// goroutines while czds collections swap zone views and the simulated
// clock fires RDAP collections and fleet probe ticks — the full ingest
// hot path under -race.
func TestConcurrentIngestRace(t *testing.T) {
	clk := simclock.NewSim(t0)
	zones := czds.New()
	fleetCfg := measure.DefaultConfig()
	fleetCfg.StopWhenDead = true
	fleet := measure.NewFleet(fleetCfg, clk, staticBackend{})
	bus := stream.NewBus()

	cfg := DefaultConfig(t0, t0.Add(91*24*time.Hour))
	cfg.IngestWorkers = 4
	cfg.RDAPWorkers = 4 // step 2 through the async dispatch engine
	p := New(cfg, clk, psl.Default(), zones, nullQuerier{}, fleet, bus, 7)

	evs := synthEvents(4000, t0)
	const feeders = 4
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			part := evs[f*len(evs)/feeders : (f+1)*len(evs)/feeders]
			if f%2 == 0 {
				for i := 0; i < len(part); i += 64 {
					end := i + 64
					if end > len(part) {
						end = len(part)
					}
					p.HandleBatch(part[i:end])
				}
			} else {
				for _, ev := range part {
					p.HandleEvent(ev)
				}
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

// TestDispatchMatchesSerialRDAP replays one corpus through step 2 without
// a dispatcher — its one timer untagged (a querier that reads the clock)
// and tagged (a time-explicit querier), the latter also under a lookahead
// drain that fires lookups ahead of committed time — and through the
// dispatch engine at two pool widths, advancing the clock through every
// queueing delay, and requires identical candidate stores — RDAP
// outcomes, timestamps and validation bits included. This is step 2's
// determinism contract at the pipeline level.
func TestDispatchMatchesSerialRDAP(t *testing.T) {
	evs := synthEvents(1200, t0)

	run := func(q rdap.Querier, rdapWorkers, window int) ([]Candidate, simclock.Stats) {
		clk := simclock.NewSim(t0)
		cfg := DefaultConfig(t0, t0.Add(91*24*time.Hour))
		cfg.RDAPWorkers = rdapWorkers
		p := New(cfg, clk, psl.Default(), czds.New(), q, nil, nil, 55)
		for _, ev := range evs {
			p.HandleEvent(ev)
		}
		// Fire every queued RDAP collection: delays stay under 5 minutes.
		clk.RunUntilLookahead(t0.Add(time.Hour), window, 8)
		return p.Candidates(), clk.Stats()
	}

	want, _ := run(hashQuerier{}, 0, 0)
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
		name            string
		q               rdap.Querier
		workers, window int
	}{
		{"untagged timer under lookahead", hashQuerier{}, 0, 8},
		{"tagged timer", hashQuerierAt{}, 0, 0},
		{"tagged timer under lookahead", hashQuerierAt{}, 0, 8},
		{"dispatcher width 1", hashQuerier{}, 1, 0},
		{"dispatcher width 8", hashQuerier{}, 8, 0},
		{"dispatcher width 8, time-explicit, lookahead", hashQuerierAt{}, 8, 8},
	} {
		got, st := run(row.q, row.workers, row.window)
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

// TestBatchMatchesSerial replays one recorded world corpus through three
// pipelines — per-event, single-worker batches, wide parallel batches —
// and requires identical candidate stores and identical feed logs.
func TestBatchMatchesSerial(t *testing.T) {
	wcfg := worldsim.DefaultConfig(23, 0.0015)
	wcfg.Weeks = 2
	evs := worldsim.RecordedEvents(wcfg)
	if len(evs) < 200 {
		t.Fatalf("thin corpus: %d events", len(evs))
	}

	build := func(workers int) (*Pipeline, *stream.Bus) {
		clk := simclock.NewSim(t0)
		cfg := DefaultConfig(t0, t0.Add(91*24*time.Hour))
		cfg.IngestWorkers = workers
		bus := stream.NewBus()
		p := New(cfg, clk, psl.Default(), czds.New(), nullQuerier{}, nil, bus, 99)
		return p, bus
	}

	serial, serialBus := build(0)
	for _, ev := range evs {
		serial.HandleEvent(ev)
	}

	batched, batchedBus := build(1)
	parallel, parallelBus := build(8)
	for i := 0; i < len(evs); i += 173 { // deliberately odd batch size
		end := i + 173
		if end > len(evs) {
			end = len(evs)
		}
		batched.HandleBatch(evs[i:end])
		parallel.HandleBatch(evs[i:end])
	}

	want := serial.Candidates()
	for name, p := range map[string]*Pipeline{"batched": batched, "parallel": parallel} {
		if got := p.Candidates(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s candidates diverge from serial (%d vs %d)", name, len(got), len(want))
		}
	}
	wantFeed := serialBus.Topic("nrd-feed").Poll("cmp", 1<<20)
	for name, bus := range map[string]*stream.Bus{"batched": batchedBus, "parallel": parallelBus} {
		got := bus.Topic("nrd-feed").Poll("cmp", 1<<20)
		if !reflect.DeepEqual(got, wantFeed) {
			t.Errorf("%s feed log diverges from serial (%d vs %d messages)", name, len(got), len(wantFeed))
		}
	}
}
