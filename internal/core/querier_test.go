package core_test

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"darkdns/internal/certstream"
	"darkdns/internal/core"
	"darkdns/internal/ct"
	"darkdns/internal/czds"
	"darkdns/internal/psl"
	"darkdns/internal/rdap"
	"darkdns/internal/registry"
	"darkdns/internal/simclock"
)

var t0 = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

// TestPipelineWithMuxRDAP runs step 2 through core.MuxQuerier over an
// rdap.Mux backed by a simulated registry, the path a campaign takes: an
// OK lookup fills the candidate's registrar and registration date, and
// the candidate validates.
func TestPipelineWithMuxRDAP(t *testing.T) {
	clk := simclock.NewSim(t0)
	reg := registry.New(registry.DefaultConfig("com"), clk, rand.New(rand.NewSource(1)))
	defer reg.Stop()

	mux := rdap.NewMux()
	mux.Handle("com", rdap.BackendFunc(func(name string) (*rdap.Record, error) {
		r, err := reg.RDAPLookup(name)
		if err != nil {
			return nil, rdap.ErrNotFound
		}
		return &rdap.Record{Domain: r.Domain, Registrar: r.Registrar, Registered: r.Created}, nil
	}))

	cfg := core.DefaultConfig(t0, t0.Add(30*24*time.Hour))
	cfg.RDAPFailureRate = 0
	cfg.RDAPDelay = nil
	p := core.New(cfg, clk, psl.Default(), czds.New(), core.MuxQuerier{Mux: mux}, nil, nil, 1)

	// Register a domain, let it enter the zone and sync to RDAP, then
	// deliver its certificate event.
	reg.Register("mux-rdap.com", "NameCheap", []string{"ns1.cloudflare.com"}, netip.Addr{})
	clk.Advance(3 * time.Minute)
	p.HandleEvent(certstream.Event{
		Seen: clk.Now(), Log: "argon",
		Entry: ct.Entry{Kind: ct.PreCertificate, Issuer: "LE", CN: "www.mux-rdap.com"},
	})
	clk.Advance(time.Minute) // fire the RDAP collection callback

	c, ok := p.Candidate("mux-rdap.com")
	if !ok {
		t.Fatal("candidate missing")
	}
	if c.RDAPOutcome != core.RDAPOK {
		t.Fatalf("RDAP through the mux: %v", c.RDAPOutcome)
	}
	if c.Registrar != "NameCheap" || !c.Registered.Equal(t0) {
		t.Errorf("record: registrar=%q registered=%v", c.Registrar, c.Registered)
	}
	if !c.Validated {
		t.Error("candidate should validate (CT seen 3m after registration)")
	}
}

// TestPipelineRDAPRateLimitedNotRetried exercises the paper's failure
// mode: a lookup the RDAP service refuses (ErrRateLimited) yields an
// RDAPError outcome, and the pipeline never retries it.
func TestPipelineRDAPRateLimitedNotRetried(t *testing.T) {
	clk := simclock.NewSim(t0)
	calls := map[string]int{}
	mux := rdap.NewMux()
	// A service that refuses everything after the first request.
	mux.Handle("com", rdap.BackendFunc(func(name string) (*rdap.Record, error) {
		calls[name]++
		if len(calls) > 1 {
			return nil, rdap.ErrRateLimited
		}
		return &rdap.Record{Domain: name, Registrar: "X", Registered: t0}, nil
	}))

	cfg := core.DefaultConfig(t0, t0.Add(time.Hour))
	cfg.RDAPFailureRate = 0
	cfg.RDAPDelay = nil
	p := core.New(cfg, clk, psl.Default(), czds.New(), core.MuxQuerier{Mux: mux}, nil, nil, 1)

	for i, d := range []string{"first.com", "second.com"} {
		p.HandleEvent(certstream.Event{
			Seen:  clk.Now().Add(time.Duration(i) * time.Second),
			Log:   "argon",
			Entry: ct.Entry{Kind: ct.PreCertificate, CN: d},
		})
	}
	clk.Advance(24 * time.Hour)

	first, _ := p.Candidate("first.com")
	second, _ := p.Candidate("second.com")
	if first.RDAPOutcome != core.RDAPOK {
		t.Errorf("first: %v", first.RDAPOutcome)
	}
	if second.RDAPOutcome != core.RDAPError {
		t.Errorf("second should be rate-limited: %v", second.RDAPOutcome)
	}
	if calls["first.com"] != 1 || calls["second.com"] != 1 {
		t.Errorf("lookups per name: %v, want exactly one each (no retries)", calls)
	}
}
