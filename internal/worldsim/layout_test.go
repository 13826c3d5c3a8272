package worldsim

import (
	"math/rand"
	"testing"
	"time"
)

func TestMonthlyWeightsZeroTotal(t *testing.T) {
	w := monthlyWeights([3]int{0, 0, 0})
	for i, got := range w {
		if got != 1./3 {
			t.Errorf("weights[%d] = %v, want 1/3", i, got)
		}
	}
	w = monthlyWeights([3]int{1, 1, 2})
	if w[0] != 0.25 || w[1] != 0.25 || w[2] != 0.5 {
		t.Errorf("weights = %v, want [0.25 0.25 0.5]", w)
	}
}

// testCompiler builds a planCompiler over a bare config, for exercising
// the pure sampling helpers directly.
func testCompiler(weeks int, seed int64) *planCompiler {
	cfg := DefaultConfig(seed, 0.001)
	cfg.Weeks = weeks
	env := &buildEnv{cfg: &cfg, numCAs: len(caNames)}
	return newPlanCompiler(env, "test", 0, 1, 0, 0, rand.New(rand.NewSource(seed)))
}

// TestSampleCreationClampsToWindow: when the window is shorter than a
// month boundary (weeks*7 < 90), the month's day range clamps to the
// window, and a fully out-of-window month (lo >= hi) falls back to the
// whole window.
func TestSampleCreationClampsToWindow(t *testing.T) {
	// Weeks=1: windowDays=7. Weights force month 2 → lo=60 >= hi=7, so
	// the fallback branch must sample the whole 7-day window.
	pc := testCompiler(1, 1)
	start := pc.env.cfg.Start
	end := start.Add(7 * 24 * time.Hour)
	for i := 0; i < 200; i++ {
		at := pc.sampleCreation([3]float64{0, 0, 1})
		if at.Before(start) || !at.Before(end) {
			t.Fatalf("month-2 creation %v outside 1-week window [%v, %v)", at, start, end)
		}
	}

	// Weeks=5: windowDays=35. Weights force month 1 → [30, 60) clamps to
	// [30, 35).
	pc = testCompiler(5, 2)
	start = pc.env.cfg.Start
	lo := start.Add(30 * 24 * time.Hour)
	hi := start.Add(35 * 24 * time.Hour)
	for i := 0; i < 200; i++ {
		at := pc.sampleCreation([3]float64{0, 1, 0})
		if at.Before(lo) || !at.Before(hi) {
			t.Fatalf("month-1 creation %v outside clamped range [%v, %v)", at, lo, hi)
		}
	}
}

// TestSampleCreationMonthWeights: weights actually steer the sampled
// month in a full-length window.
func TestSampleCreationMonthWeights(t *testing.T) {
	pc := testCompiler(13, 3)
	start := pc.env.cfg.Start
	for i := 0; i < 200; i++ {
		at := pc.sampleCreation([3]float64{1, 0, 0})
		if day := int(at.Sub(start) / (24 * time.Hour)); day >= 30 {
			t.Fatalf("month-0 creation landed on day %d", day)
		}
	}
}

func TestSubseedStreamsIndependent(t *testing.T) {
	seen := make(map[int64]string)
	for _, label := range []string{"plan/com", "plan/net", "plan/co", "plan/comm", "ccplan/nl", "registry/com", "ca/LetsEncrypt"} {
		s := subseed(42, label)
		if prev, dup := seen[s]; dup {
			t.Fatalf("subseed(42, %q) == subseed(42, %q)", label, prev)
		}
		seen[s] = label
		if s != subseed(42, label) {
			t.Fatalf("subseed(42, %q) not deterministic", label)
		}
		if s == subseed(43, label) {
			t.Fatalf("subseed(%q) ignores the world seed", label)
		}
	}
}

func TestRetryDelayRangeAndDeterminism(t *testing.T) {
	for attempt := 0; attempt < maxCertAttempts; attempt++ {
		d := retryDelay(7, attempt)
		if d != retryDelay(7, attempt) {
			t.Fatalf("retryDelay(7, %d) not deterministic", attempt)
		}
		if d < time.Minute || d > 4*time.Minute {
			t.Fatalf("retryDelay(7, %d) = %v outside [1m, 4m]", attempt, d)
		}
	}
}

// TestCompilePlanPure: compiling the same plan chunk twice from the same
// seed must yield identical layouts, and a compile must not touch
// anything outside its own Layout (exercised indirectly: two compiles of
// different plans share the env).
func TestCompilePlanPure(t *testing.T) {
	cfg := DefaultConfig(9, 0.002)
	cfg.Weeks = 2
	env := &buildEnv{cfg: &cfg, numCAs: len(caNames)}
	plan := PaperPlans()[0]
	chunks := planChunks(&cfg, plan)
	compile := func() *Layout {
		return compilePlanChunk(env, plan, 0, chunks,
			rand.New(rand.NewSource(subseed(cfg.Seed, "plan/"+plan.TLD+"/0"))))
	}
	a, b := compile(), compile()
	if len(a.domains) == 0 || len(a.domains) != len(b.domains) || len(a.ghosts) != len(b.ghosts) {
		t.Fatalf("layout sizes diverge: %d/%d vs %d/%d",
			len(a.domains), len(a.ghosts), len(b.domains), len(b.ghosts))
	}
	for i := range a.domains {
		if *a.domains[i].d != *b.domains[i].d {
			t.Fatalf("domain %d diverges: %+v vs %+v", i, *a.domains[i].d, *b.domains[i].d)
		}
		if a.domains[i].retrySeed != b.domains[i].retrySeed ||
			a.domains[i].certDelay != b.domains[i].certDelay {
			t.Fatalf("compiled lifecycle %d diverges", i)
		}
	}
}
