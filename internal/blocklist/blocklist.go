// Package blocklist simulates the ten public blocklists the paper polls
// daily (§4.3): DBL, PhishTank, Phishing Army, Cybercrime-tracker, the
// three Toulouse lists, DigitalSide, OpenPhish, VXVault, Ponmocup and
// Quidsup. Each list flags a share of abusive domains after a reporting
// latency; because transient domains die within hours while blocklist
// latencies run days, most transient flags land post-deletion — the
// paper's 94 % headline.
package blocklist

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// List models one blocklist's detection behaviour.
type List struct {
	Name string
	// HitRate is the probability the list ever flags a given abusive
	// domain.
	HitRate float64
	// LatencyMean is the mean of the exponential delay between abuse
	// onset (registration) and the domain appearing on the list, on top
	// of LatencyFloor.
	LatencyMean time.Duration
	// LatencyFloor is the minimum reporting-and-verification delay.
	// Public lists effectively never flag within the first hours, which
	// is why transient domains are flagged almost exclusively after
	// deletion (§4.3).
	LatencyFloor time.Duration
}

// DefaultLists returns the paper's ten lists with coverage/latency models
// calibrated so that ≈6.6 % of abusive early-removed NRDs and ≈5 % of
// transient domains are flagged by at least one list.
func DefaultLists() []List {
	day := 24 * time.Hour
	floor := 14 * time.Hour
	return []List{
		{Name: "DBL", HitRate: 0.024, LatencyMean: 2 * day, LatencyFloor: floor},
		{Name: "PhishTank", HitRate: 0.0096, LatencyMean: 3 * day, LatencyFloor: floor},
		{Name: "PhishingArmy", HitRate: 0.0096, LatencyMean: 4 * day, LatencyFloor: floor},
		{Name: "CybercrimeTracker", HitRate: 0.0032, LatencyMean: 6 * day, LatencyFloor: floor},
		{Name: "ToulouseDDoS", HitRate: 0.0016, LatencyMean: 7 * day, LatencyFloor: floor},
		{Name: "ToulouseCrypto", HitRate: 0.0016, LatencyMean: 7 * day, LatencyFloor: floor},
		{Name: "ToulouseMalware", HitRate: 0.0032, LatencyMean: 6 * day, LatencyFloor: floor},
		{Name: "DigitalSide", HitRate: 0.004, LatencyMean: 5 * day, LatencyFloor: floor},
		{Name: "OpenPhish", HitRate: 0.008, LatencyMean: 3 * day, LatencyFloor: floor},
		{Name: "Vxvault", HitRate: 0.0024, LatencyMean: 8 * day, LatencyFloor: floor},
	}
}

// Flag is one listing event.
type Flag struct {
	Domain string
	List   string
	At     time.Time
}

// Aggregator accumulates listing events across all lists, supporting the
// paper's daily-poll analysis over an extended window (the study polls
// through 29 Apr 2024 to catch late insertions).
type Aggregator struct {
	lists []List

	mu    sync.Mutex
	flags map[string][]Flag // domain → events sorted by time
}

// NewAggregator creates an aggregator over lists (DefaultLists if nil).
func NewAggregator(lists []List) *Aggregator {
	if lists == nil {
		lists = DefaultLists()
	}
	return &Aggregator{lists: lists, flags: make(map[string][]Flag)}
}

// Models returns a copy of the configured list models.
func (a *Aggregator) Models() []List { return append([]List(nil), a.lists...) }

// SampleAbusive rolls each list's detection model for an abusive domain
// whose abuse began at abuseStart, returning the flag events that would
// be recorded. Pure given rng — the world builder's compile phase draws
// flags through it without touching an aggregator; SeedFlag is the
// commit half.
func SampleAbusive(lists []List, rng *rand.Rand, domain string, abuseStart time.Time) []Flag {
	var flags []Flag
	for _, l := range lists {
		if rng.Float64() >= l.HitRate {
			continue
		}
		delay := l.LatencyFloor + time.Duration(rng.ExpFloat64()*float64(l.LatencyMean))
		flags = append(flags, Flag{Domain: domain, List: l.Name, At: abuseStart.Add(delay)})
	}
	return flags
}

// ConsiderAbusive rolls each list's detection model for an abusive domain
// whose abuse began at abuseStart, recording flag events. It returns the
// number of lists that flagged the domain.
func (a *Aggregator) ConsiderAbusive(rng *rand.Rand, domain string, abuseStart time.Time) int {
	flags := SampleAbusive(a.lists, rng, domain, abuseStart)
	for _, f := range flags {
		a.SeedFlag(f.List, f.Domain, f.At)
	}
	return len(flags)
}

// SeedFlag records a listing event directly (used for pre-window history:
// the "flagged before registration" re-registration cases).
func (a *Aggregator) SeedFlag(list, domain string, at time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	evs := append(a.flags[domain], Flag{Domain: domain, List: list, At: at})
	sort.Slice(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })
	a.flags[domain] = evs
}

// FirstListed returns the earliest listing event for domain within the
// polling window ending at pollEnd (events after pollEnd are not yet
// visible to a daily poller).
func (a *Aggregator) FirstListed(domain string, pollEnd time.Time) (Flag, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, f := range a.flags[domain] {
		if !f.At.After(pollEnd) {
			return f, true
		}
	}
	return Flag{}, false
}

// Flags returns all events for domain (copies).
func (a *Aggregator) Flags(domain string) []Flag {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Flag(nil), a.flags[domain]...)
}

// FlaggedDomains returns every domain with at least one event before
// pollEnd.
func (a *Aggregator) FlaggedDomains(pollEnd time.Time) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []string
	for d, evs := range a.flags {
		for _, f := range evs {
			if !f.At.After(pollEnd) {
				out = append(out, d)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// Timing classifies a domain's first flag relative to its lifecycle, the
// §4.3 taxonomy.
type Timing uint8

// Flag-timing classes.
const (
	NotFlagged Timing = iota
	BeforeRegistration
	WhileActive
	OnRegistrationDay
	AfterDeletion
)

// String names the timing class.
func (tm Timing) String() string {
	switch tm {
	case NotFlagged:
		return "not-flagged"
	case BeforeRegistration:
		return "before-registration"
	case WhileActive:
		return "while-active"
	case OnRegistrationDay:
		return "on-registration-day"
	case AfterDeletion:
		return "after-deletion"
	}
	return "unknown"
}

// Classify determines when the first flag fell relative to [created,
// deleted). A zero deleted means still active. sameDay groups the
// "flagged on their registration date" class the paper reports for
// transients.
func (a *Aggregator) Classify(domain string, created, deleted, pollEnd time.Time) Timing {
	f, ok := a.FirstListed(domain, pollEnd)
	if !ok {
		return NotFlagged
	}
	switch {
	case f.At.Before(created):
		return BeforeRegistration
	case !deleted.IsZero() && !f.At.Before(deleted):
		return AfterDeletion
	case f.At.Year() == created.Year() && f.At.YearDay() == created.YearDay():
		return OnRegistrationDay
	default:
		return WhileActive
	}
}
