package core

import (
	"testing"
	"time"

	"darkdns/internal/czds"
	"darkdns/internal/psl"
	"darkdns/internal/simclock"
	"darkdns/internal/zoneset"
)

// TestZoneSlackAbsorbsLatePublication covers the paper's ±3-day slack:
// a domain whose TLD published its snapshot days late must not be
// misclassified as transient, because the slack window extends the
// EverSeen search backwards from the CT observation and forwards past the
// window end.
func TestZoneSlackAbsorbsLatePublication(t *testing.T) {
	clk := simclock.NewSim(t0)
	zones := czds.New()
	end := t0.Add(30 * 24 * time.Hour)
	p := New(DefaultConfig(t0, end), clk, psl.Default(), zones, nullQuerier{}, nil, nil, 1)

	// Candidate detected on day 10.
	p.HandleEvent(event(t0.Add(10*24*time.Hour), "late-zone.com"))

	// The snapshot containing it lands 2 days past the window end —
	// inside the 3-day slack.
	zones.Ingest(zoneset.Diff{TLD: "com", Serial: 9, Taken: end.Add(2 * 24 * time.Hour), Added: []string{"late-zone.com"}})

	rep := p.Transients()
	if len(rep.LowerBound) != 0 {
		t.Fatalf("late-published domain misclassified as transient: %+v", rep.LowerBound)
	}

	// A snapshot beyond the slack must NOT rescue the domain. The TLD
	// still needs an in-window snapshot so it counts as collected.
	z2 := czds.New()
	p2 := New(DefaultConfig(t0, end), clk, psl.Default(), z2, nullQuerier{}, nil, nil, 1)
	p2.HandleEvent(event(t0.Add(10*24*time.Hour), "too-late.com"))
	z2.Ingest(zoneset.Diff{TLD: "com", Serial: 1, Taken: t0.Add(24 * time.Hour)})
	z2.Ingest(zoneset.Diff{TLD: "com", Serial: 9, Taken: end.Add(10 * 24 * time.Hour), Added: []string{"too-late.com"}})
	rep2 := p2.Transients()
	if len(rep2.LowerBound) != 1 || rep2.LowerBound[0].Domain != "too-late.com" {
		t.Fatalf("domain seen only beyond slack should stay transient: %+v", rep2.LowerBound)
	}
}

func TestSummary(t *testing.T) {
	clk := simclock.NewSim(t0)
	p := New(DefaultConfig(t0, t0.Add(time.Hour)), clk, psl.Default(), czds.New(), nullQuerier{}, nil, nil, 1)
	p.HandleEvent(event(t0, "one.com"))
	p.HandleEvent(event(t0, "two.shop"))
	for clk.Pending() > 0 {
		clk.Advance(24 * time.Hour)
	}
	s := p.Summary()
	if s.Candidates != 2 {
		t.Fatalf("candidates = %d", s.Candidates)
	}
	// nullQuerier yields not-found for all (bar injected errors).
	if s.ByOutcome[RDAPNotFound]+s.ByOutcome[RDAPError] != 2 {
		t.Errorf("outcomes: %+v", s.ByOutcome)
	}
	if s.Validated != 0 {
		t.Errorf("validated = %d", s.Validated)
	}
}
