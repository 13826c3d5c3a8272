package noddfeed

import (
	"math/rand"
	"testing"
	"time"
)

var t0 = time.Date(2024, 5, 9, 0, 0, 0, 0, time.UTC)

// observe samples a detection at rate for a registration of name at
// created living lifetime and, when there is one, seeds it into f, the
// way the world builder's compile and commit halves do.
func observe(f *Feed, rng *rand.Rand, name string, created time.Time, lifetime time.Duration, rate float64) (time.Time, bool) {
	at, ok := f.Config().Sample(rng, created, lifetime, rate)
	if ok {
		f.Seed(name, at)
	}
	return at, ok
}

// TestDetectionRateConverges: long-lived registrations sampled at the
// default DetectRate are detected at that rate, and every detection is
// in the feed.
func TestDetectionRateConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := New(DefaultConfig())
	const n = 50_000
	hits := 0
	for i := 0; i < n; i++ {
		if _, ok := observe(f, rng, dom(i), t0, 0, f.Config().DetectRate); ok {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.44 || rate > 0.50 {
		t.Errorf("long-lived detect rate %.3f outside [0.44, 0.50]", rate)
	}
	held := 0
	for i := 0; i < n; i++ {
		if _, ok := f.DetectedAt(dom(i)); ok {
			held++
		}
	}
	if held != hits {
		t.Errorf("feed holds %d detections, want %d", held, hits)
	}
}

// TestTransientsDetectedLess: a 3-hour registration sampled at
// TransientDetectRate is detected less often than a long-lived one at
// DetectRate.
func TestTransientsDetectedLess(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig()
	const n = 50_000
	longLived, transients := 0, 0
	for i := 0; i < n; i++ {
		if _, ok := cfg.Sample(rng, t0, 0, cfg.DetectRate); ok {
			longLived++
		}
		if _, ok := cfg.Sample(rng, t0, 3*time.Hour, cfg.TransientDetectRate); ok {
			transients++
		}
	}
	if transients >= longLived {
		t.Errorf("transients (%d) should be detected less than long-lived (%d)", transients, longLived)
	}
}

func TestDeathBeforeDetectionDrops(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultConfig()
	cfg.DelayMean = 10 * time.Hour // long sensor lag
	const n = 20_000
	hits := 0
	for i := 0; i < n; i++ {
		if _, ok := cfg.Sample(rng, t0, 30*time.Minute, cfg.TransientDetectRate); ok {
			hits++
		}
	}
	// With a 10 h mean delay, a 30-minute life should almost always
	// escape detection.
	if rate := float64(hits) / n; rate > 0.05 {
		t.Errorf("detected %.3f of instantly-dying domains", rate)
	}
}

// TestDetectedAtAndBetween: a certain detection is found by DetectedAt
// under any case of its name, at an instant between the registration and
// a day later, and a name never seeded is not found.
func TestDetectedAtAndBetween(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := New(Config{DetectRate: 1.0, TransientDetectRate: 1.0, DelayMean: time.Minute})
	at, ok := observe(f, rng, "X.COM", t0, 0, 1)
	if !ok {
		t.Fatal("certain detection missed")
	}
	got, ok := f.DetectedAt("x.com")
	if !ok || !got.Equal(at) {
		t.Errorf("DetectedAt: %v, %v", got, ok)
	}
	if at.Before(t0) || !at.Before(t0.Add(24*time.Hour)) {
		t.Errorf("detected at %v, outside the registration's first day", at)
	}
	if _, ok := f.DetectedAt("y.com"); ok {
		t.Error("DetectedAt found a name never seeded")
	}
}

func TestEarliestDetectionWins(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := New(Config{DetectRate: 1, TransientDetectRate: 1, DelayMean: time.Nanosecond})
	observe(f, rng, "x.com", t0.Add(time.Hour), 0, 1)
	observe(f, rng, "x.com", t0, 0, 1)
	at, _ := f.DetectedAt("x.com")
	if !at.Before(t0.Add(time.Hour)) {
		t.Errorf("later observation overwrote earlier: %v", at)
	}
}

func dom(i int) string {
	b := []byte("nnnnnn.shop")
	for p := 0; p < 6; p++ {
		b[p] = byte('a' + i%26)
		i /= 26
	}
	return string(b)
}

// TestSampleSeedMatchesObserve: Config.Sample is pure given its RNG
// stream, and a feed seeded with its detections (the world builder's
// compile/commit split), grown for them first or not, observes exactly
// those: DetectedAt gives back each sampled instant and nothing for a
// name the sample missed.
func TestSampleSeedMatchesObserve(t *testing.T) {
	cfg := DefaultConfig()
	created := time.Date(2023, 11, 3, 0, 0, 0, 0, time.UTC)
	const n = 2000
	sample := func() map[string]time.Time {
		rng := rand.New(rand.NewSource(5))
		want := make(map[string]time.Time)
		for i := 0; i < n; i++ {
			if at, ok := cfg.Sample(rng, created, time.Duration(i)*time.Minute, 0.4); ok {
				want[dom(i)] = at
			}
		}
		return want
	}
	want := sample()
	if again := sample(); len(again) != len(want) {
		t.Fatalf("the same stream sampled %d and %d detections", len(want), len(again))
	}
	for _, grow := range []bool{false, true} {
		f := New(cfg)
		if grow {
			f.Grow(len(want))
		}
		for i := 0; i < n; i++ {
			if at, ok := want[dom(i)]; ok {
				f.Seed(dom(i), at)
			}
		}
		for i := 0; i < n; i++ {
			got, ok := f.DetectedAt(dom(i))
			if at, sampled := want[dom(i)]; ok != sampled || ok && !got.Equal(at) {
				t.Fatalf("grown %v: %s detected at %v (%v), sampled at %v (%v)", grow, dom(i), got, ok, at, sampled)
			}
		}
	}
}

// TestSeedKeepsEarliest: seeding the same domain twice keeps the
// earlier sighting, also across a Grow.
func TestSeedKeepsEarliest(t *testing.T) {
	f := New(DefaultConfig())
	t1 := time.Date(2023, 11, 3, 12, 0, 0, 0, time.UTC)
	f.Seed("dup.shop", t1)
	f.Grow(2)
	f.Seed("dup.shop", t1.Add(time.Hour))
	f.Seed("DUP.shop", t1.Add(-time.Hour)) // canonicalized, earlier
	at, ok := f.DetectedAt("dup.shop")
	if !ok || !at.Equal(t1.Add(-time.Hour)) {
		t.Fatalf("DetectedAt = %v, %v; want earliest seed", at, ok)
	}
}
