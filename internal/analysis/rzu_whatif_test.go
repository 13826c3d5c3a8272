package analysis

import (
	"testing"
	"time"
)

func TestRZUWhatIfClosesTheGap(t *testing.T) {
	res := testOutcome(t).RZU[0]
	if res.Interval != 5*time.Minute {
		t.Fatalf("first RZU interval %v, want 5m", res.Interval)
	}
	if res.FastDeleted == 0 {
		t.Fatal("no fast-deleted population")
	}
	rzuShare := float64(res.RZUVisible) / float64(res.FastDeleted)
	ctShare := float64(res.CTDetected) / float64(res.FastDeleted)
	// The paper's thesis: RZU visibility dwarfs CT-based detection.
	if rzuShare <= ctShare {
		t.Errorf("RZU share %.3f should exceed CT share %.3f", rzuShare, ctShare)
	}
	// A 5-minute feed sees nearly every fast-deleted domain (they live
	// minutes to hours).
	if rzuShare < 0.90 {
		t.Errorf("RZU share %.3f, want ≥0.90", rzuShare)
	}
	if res.RZUOnlyExtra == 0 {
		t.Error("RZU should surface domains CT missed")
	}
	if res.BothVisible > res.CTDetected {
		t.Error("both-visible cannot exceed CT-detected")
	}
}

func TestRZUWhatIfCoarserIntervalsSeeLess(t *testing.T) {
	rzu := testOutcome(t).RZU
	fine, day := rzu[0], rzu[len(rzu)-1]
	if fine.Interval != 5*time.Minute || day.Interval != 24*time.Hour {
		t.Fatalf("RZU intervals %v … %v, want 5m … 24h", fine.Interval, day.Interval)
	}
	if day.RZUVisible >= fine.RZUVisible {
		t.Errorf("daily updates (%d visible) should miss more than 5-minute updates (%d)",
			day.RZUVisible, fine.RZUVisible)
	}
	// The daily case is the CZDS status quo: roughly the snapshot-miss
	// population should be invisible (cf. the .nl 47 % never-in-zone).
	dayShare := float64(day.RZUVisible) / float64(day.FastDeleted)
	if dayShare > 0.75 {
		t.Errorf("daily visibility %.3f implausibly high", dayShare)
	}
}
