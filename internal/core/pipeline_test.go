package core

import (
	"context"
	"testing"
	"time"

	"darkdns/internal/certstream"
	"darkdns/internal/ct"
	"darkdns/internal/czds"
	"darkdns/internal/measure"
	"darkdns/internal/psl"
	"darkdns/internal/rdap"
	"darkdns/internal/simclock"
	"darkdns/internal/stream"
	"darkdns/internal/worldsim"
	"darkdns/internal/zoneset"
)

var t0 = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

func event(seen time.Time, names ...string) certstream.Event {
	cn := names[0]
	return certstream.Event{
		Seen: seen, Log: "test-log",
		Entry: ct.Entry{Kind: ct.PreCertificate, Issuer: "TestCA", CN: cn, SANs: names[1:]},
	}
}

// nullQuerier always reports not-found.
type nullQuerier struct{}

func (nullQuerier) Domain(_ context.Context, _ string) (*rdap.Record, error) {
	return nil, rdap.ErrNotFound
}

func TestPipelineStep1Filtering(t *testing.T) {
	clk := simclock.NewSim(t0)
	zones := czds.New()
	zones.Ingest(zoneset.Diff{TLD: "com", Serial: 1, Taken: t0.Add(-time.Hour), Added: []string{"known.com"}})

	p := New(DefaultConfig(t0, t0.Add(91*24*time.Hour)), clk, psl.Default(), zones,
		nullQuerier{}, nil, nil, 1)

	// A cert for a subdomain of an unknown domain → candidate for the
	// registered domain.
	p.HandleEvent(event(t0, "www.fresh.com", "fresh.com"))
	// Already in the latest snapshot → filtered.
	p.HandleEvent(event(t0, "known.com"))
	// Public suffix itself → no registered domain.
	p.HandleEvent(event(t0, "com"))
	// Duplicate candidate → ignored.
	p.HandleEvent(event(t0.Add(time.Hour), "fresh.com"))

	if p.Len() != 1 {
		t.Fatalf("candidates = %d, want 1", p.Len())
	}
	c, ok := p.Candidate("fresh.com")
	if !ok || !c.SeenAt.Equal(t0) || c.TLD != "com" {
		t.Errorf("candidate: %+v", c)
	}
}

func TestPipelinePublishesFeed(t *testing.T) {
	clk := simclock.NewSim(t0)
	zones := czds.New()
	bus := stream.NewBus()
	p := New(DefaultConfig(t0, t0.Add(time.Hour)), clk, psl.Default(), zones,
		nullQuerier{}, nil, bus, 1)
	p.HandleEvent(event(t0, "feedme.shop"))
	topic := bus.Topic("nrd-feed")
	if topic.Len() != 1 {
		t.Fatalf("feed messages = %d", topic.Len())
	}
	msgs := topic.Read(0, 10)
	if msgs[0].Key != "feedme.shop" {
		t.Errorf("feed key: %q", msgs[0].Key)
	}
}

func TestEndToEndAgainstWorld(t *testing.T) {
	wcfg := worldsim.DefaultConfig(11, 0.002)
	wcfg.Weeks = 3
	w := worldsim.New(wcfg)

	pcfg := DefaultConfig(w.Cfg.Start, w.Cfg.Start.Add(time.Duration(wcfg.Weeks)*7*24*time.Hour))
	fleetCfg := measure.DefaultConfig()
	fleetCfg.StopWhenDead = true
	fleet := measure.NewFleet(fleetCfg, w.Clock, w.ProbeBackend())
	p := New(pcfg, w.Clock, psl.Default(), w.CZDS, MuxQuerier{w.RDAP}, fleet, stream.NewBus(), 42)
	p.Start(w.Hub)
	w.Run()
	p.Stop()

	if p.Len() == 0 {
		t.Fatal("pipeline detected nothing")
	}

	// Every candidate's ground truth must be a real domain or a ghost.
	cands := p.Candidates()
	okRDAP, validated := 0, 0
	for _, c := range cands {
		if c.RDAPOutcome == RDAPOK {
			okRDAP++
			if c.Validated {
				validated++
			}
		}
	}
	if okRDAP == 0 {
		t.Fatal("no successful RDAP collections")
	}
	if validated == 0 {
		t.Fatal("no validated candidates")
	}
	// The overwhelming majority of successful RDAP lookups must validate
	// (CT-seen within 24 h of registration).
	if float64(validated)/float64(okRDAP) < 0.95 {
		t.Errorf("validation rate %.3f too low", float64(validated)/float64(okRDAP))
	}

	rep := p.Transients()
	if len(rep.LowerBound) == 0 {
		t.Fatal("no transients detected")
	}
	if len(rep.Confirmed) == 0 {
		t.Fatal("no confirmed transients")
	}
	if len(rep.Confirmed)+len(rep.RDAPFailed) > len(rep.LowerBound) {
		t.Error("report subsets exceed lower bound")
	}

	// Ground-truth check: every confirmed transient must be fast-deleted
	// in the world's ledger.
	for _, c := range rep.Confirmed {
		gt := w.Domains.Get(c.Domain)
		if gt == nil {
			t.Errorf("confirmed transient %s has no ground truth", c.Domain)
			continue
		}
		if !gt.FastDelete {
			t.Errorf("confirmed transient %s is not fast-deleted (lifetime %v)", c.Domain, gt.Lifetime)
		}
	}

	// RDAP failure rate among transients must exceed the overall rate
	// (§4.2: 34 % vs 3 %).
	transFail := float64(len(rep.RDAPFailed)) / float64(len(rep.LowerBound))
	overallFail := 0
	for _, c := range cands {
		if c.RDAPOutcome != RDAPOK {
			overallFail++
		}
	}
	overall := float64(overallFail) / float64(len(cands))
	if transFail <= overall {
		t.Errorf("transient RDAP failure %.3f should exceed overall %.3f", transFail, overall)
	}

	// Detection coverage of zone NRDs should be far from zero and below 1.
	det, zone := p.ZoneNRDCoverage("com")
	if zone == 0 {
		t.Fatal("no zone NRDs measured for com")
	}
	cov := float64(det) / float64(zone)
	if cov < 0.2 || cov > 0.8 {
		t.Errorf("com coverage %.3f outside plausible band", cov)
	}
}

func TestTransientsExcludeSnapshotAppearances(t *testing.T) {
	clk := simclock.NewSim(t0)
	zones := czds.New()
	end := t0.Add(30 * 24 * time.Hour)
	p := New(DefaultConfig(t0, end), clk, psl.Default(), zones, nullQuerier{}, nil, nil, 1)

	p.HandleEvent(event(t0.Add(time.Hour), "eventually.com"))
	p.HandleEvent(event(t0.Add(time.Hour), "never.com"))

	// eventually.com shows up in a later snapshot; never.com does not.
	zones.Ingest(zoneset.Diff{TLD: "com", Serial: 2, Taken: t0.Add(26 * time.Hour), Added: []string{"eventually.com"}})

	rep := p.Transients()
	if len(rep.LowerBound) != 1 || rep.LowerBound[0].Domain != "never.com" {
		t.Fatalf("transients: %+v", rep.LowerBound)
	}
}

func TestRDAPOutcomeString(t *testing.T) {
	for o, want := range map[RDAPOutcome]string{
		RDAPPending: "pending", RDAPOK: "ok", RDAPNotFound: "not-found",
		RDAPNotSynced: "not-synced", RDAPError: "error", RDAPOutcome(99): "unknown",
	} {
		if o.String() != want {
			t.Errorf("%d → %q", o, o.String())
		}
	}
}
