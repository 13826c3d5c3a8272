// Package czds simulates ICANN's Centralized Zone Data Service: it
// collects the daily zone publications of participating gTLD registries
// and answers what they held.
//
// The paper's pipeline keeps a collector "populated with all latest zone
// snapshots available from ICANN CZDS" (step 1); the visibility gap exists
// precisely because this collection is daily while registrations and
// takedowns are continuous.
//
// A registry publishes each day's net change (a zoneset.Diff), not the
// whole zone, and the service folds the diffs of each TLD in serial order
// into one record per name ever published: the Taken time of the first
// publication that held it, of the last one before it left, and whether
// the TLD's latest publication holds it. An in-zone name's last sighting
// is its TLD's latest Taken, so a day's fold touches only the names that
// changed. Presence is kept as the hull [first, last] of every
// publication that held the name (registrations rarely flap in and out
// of a zone), which answers the paper's "did this domain EVER appear in
// our zone collection during the window" test (§4.2) in O(1). The same
// records carry the pre-window history a world seeds (Seed), which only
// ExistedBefore reads: the paper's DZDB check that a domain was
// registered in the past.
//
// Concurrency model: the records are read on the pipeline's ingest hot
// path (InLatest runs once per CT-extracted domain) and written once a
// day per TLD, by a fold that costs O(names changed). One RWMutex guards
// them: readers share it, and a fold holds it only as long as it takes
// to apply one diff (DESIGN.md §5).
package czds

import (
	"sort"
	"sync"
	"time"

	"darkdns/internal/dnsname"
	"darkdns/internal/registry"
	"darkdns/internal/zoneset"
)

// presence is one name's record across the collection. Its instants are
// Unix nanoseconds, 0 meaning unset, so a record is 32 bytes with no
// pointer for the collector to scan.
type presence struct {
	// first and last are the Taken times of the first publication that
	// held the name and of the last one before it left; 0 first means no
	// publication ever held it. While in is set, last is stale and the
	// TLD's latest Taken stands for it.
	first, last int64
	seeded      int64 // earliest pre-window sighting; 0 if none
	in          bool  // the TLD's latest publication holds the name
}

// nanos is t as a presence instant: Unix nanoseconds, and 0 for the zero
// time.
func nanos(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// DiffStats accumulates day-over-day zone differences for one TLD — the
// "Zone NRD" baseline of Table 1.
type DiffStats struct {
	Added   int64
	Removed int64
	Changed int64
}

// zone is one TLD's collection state.
type zone struct {
	taken time.Time // the latest publication's Taken
	stats DiffStats
}

// Service collects and serves zone publications.
type Service struct {
	mu    sync.RWMutex
	names map[string]presence
	zones map[string]zone
}

// New creates an empty service.
func New() *Service {
	return &Service{names: make(map[string]presence), zones: make(map[string]zone)}
}

// Collect attaches the service to a registry's daily publications.
// Non-participating (ccTLD) registries are ignored, mirroring reality.
func (s *Service) Collect(reg *registry.Registry) {
	if !reg.InCZDS() {
		return
	}
	reg.Subscribe(s.Ingest)
}

// Ingest folds one publication into the collection. A TLD's diffs must
// arrive in serial order, the first against the empty zone, as a
// registry delivers them. That first one is a baseline: its names count
// as seen, not as newly registered.
func (s *Service) Ingest(d zoneset.Diff) {
	s.mu.Lock()
	defer s.mu.Unlock()
	z, collected := s.zones[d.TLD]
	if collected {
		z.stats.Added += int64(len(d.Added))
		z.stats.Removed += int64(len(d.Removed))
		z.stats.Changed += int64(len(d.Changed))
	}
	taken := nanos(d.Taken)
	for _, name := range d.Added {
		p := s.names[name]
		if p.first == 0 {
			p.first = taken
		}
		p.in = true
		s.names[name] = p
	}
	for _, name := range d.Removed {
		p := s.names[name]
		p.in, p.last = false, nanos(z.taken)
		s.names[name] = p
	}
	z.taken = d.Taken
	s.zones[d.TLD] = z
}

// Seed records a sighting of domain at t from zone history older than
// the collection. Only ExistedBefore reads seeds.
func (s *Service) Seed(domain string, t time.Time) {
	domain = dnsname.Canonical(domain)
	at := nanos(t)
	s.mu.Lock()
	p := s.names[domain]
	if p.seeded == 0 || at < p.seeded {
		p.seeded = at
		s.names[domain] = p
	}
	s.mu.Unlock()
}

// lookup returns the record of domain (the zero record if there is none)
// with, as its last sighting, the TLD's latest Taken while the name is in
// the zone.
func (s *Service) lookup(domain string) presence {
	domain = dnsname.Canonical(domain)
	s.mu.RLock()
	defer s.mu.RUnlock()
	p := s.names[domain]
	if p.in {
		p.last = nanos(s.zones[dnsname.TLD(domain)].taken)
	}
	return p
}

// Stats returns the accumulated zone-diff statistics for tld.
func (s *Service) Stats(tld string) DiffStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.zones[dnsname.Canonical(tld)].stats
}

// TLDs returns the zones with at least one collected publication, sorted.
func (s *Service) TLDs() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.zones))
	for tld := range s.zones {
		out = append(out, tld)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// InLatest reports whether domain appears in the latest publication of
// its TLD. Domains of uncollected TLDs report false — from the pipeline's
// perspective they are always "not in the zone files" (which is why the
// paper can apply its method to ccTLDs at all). This is the ingest hot
// path: one map read under the read lock.
func (s *Service) InLatest(domain string) bool {
	domain = dnsname.Canonical(domain)
	s.mu.RLock()
	in := s.names[domain].in
	s.mu.RUnlock()
	return in
}

// FirstSeen returns the Taken time of the first publication that held
// domain, across the whole collection, in UTC.
func (s *Service) FirstSeen(domain string) (time.Time, bool) {
	p := s.lookup(domain)
	if p.first == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, p.first).UTC(), true
}

// EverSeen reports whether domain appeared in any collected publication
// whose Taken time falls within [from, to]. This implements the paper's
// transient test: "domains that do not appear in our zone collection
// during the window ±3 days".
func (s *Service) EverSeen(domain string, from, to time.Time) bool {
	p := s.lookup(domain)
	// Presence is an interval [first, last]; it intersects [from, to]
	// unless it ends before or starts after.
	return p.first != 0 && p.last >= nanos(from) && p.first <= nanos(to)
}

// ExistedBefore reports whether domain was seeded, or first published,
// strictly before t — the paper's "registered in the past" test against
// historical zone data.
func (s *Service) ExistedBefore(domain string, t time.Time) bool {
	p := s.lookup(domain)
	at := nanos(t)
	return (p.seeded != 0 && p.seeded < at) || (p.first != 0 && p.first < at)
}
