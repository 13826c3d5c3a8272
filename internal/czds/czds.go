// Package czds simulates ICANN's Centralized Zone Data Service: it
// collects daily zone snapshots from participating gTLD registries and
// serves the latest snapshot per TLD to authorized subscribers.
//
// The paper's pipeline keeps a collector "populated with all latest zone
// snapshots available from ICANN CZDS" (step 1); the visibility gap exists
// precisely because this collection is daily while registrations and
// takedowns are continuous.
//
// Rather than retaining every daily snapshot (which at paper scale is
// hundreds of millions of delegation records), the service keeps the
// latest snapshot per TLD plus a compact presence index: for every domain
// ever seen in any snapshot, the Taken times of its first and last
// appearance. Domain presence is effectively an interval (registrations
// rarely flap in and out of a zone), so the index answers the paper's
// "did this domain EVER appear in our zone collection during the window"
// test (§4.2) in O(1).
//
// Concurrency model: the collection is read on the pipeline's ingest hot
// path (InLatest runs once per CT-extracted domain) but written only on
// daily snapshot collection. The per-TLD snapshot/stats view goes
// through an immutable generation swapped behind an atomic.Pointer, so
// InLatest takes no lock however many goroutines filter concurrently,
// while writers pay a small per-TLD copy-on-write rebuild under a mutex
// (DESIGN.md §5). The presence index (one entry per domain ever seen —
// the bulk of the collection) is different: its readers (FirstSeen,
// EverSeen) run off the hot path, at transient labelling and analysis
// time, so it is one mutable map under the writers' mutex. Ingest
// updates each domain's interval in place as it walks the snapshot — no
// clone, no per-snapshot grouping, so a snapshot of already-known
// domains allocates nothing per domain.
package czds

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"darkdns/internal/dnsname"
	"darkdns/internal/registry"
	"darkdns/internal/zoneset"
)

// ErrNoZone is returned when no snapshot has been collected for a TLD.
var ErrNoZone = errors.New("czds: no snapshot for zone")

// presence is a domain's appearance interval across collected snapshots.
type presence struct {
	first time.Time
	last  time.Time
}

// DiffStats accumulates day-over-day zone differences for one TLD — the
// "Zone NRD" baseline of Table 1.
type DiffStats struct {
	Added   int64
	Removed int64
	Changed int64
}

// view is one immutable generation of the per-TLD collection state.
// Readers load it atomically and never see it change; Ingest builds a
// successor and swaps.
type view struct {
	latest map[string]*zoneset.Snapshot
	stats  map[string]DiffStats
}

// emptyView is the generation before any collection.
var emptyView = &view{
	latest: map[string]*zoneset.Snapshot{},
	stats:  map[string]DiffStats{},
}

// Service collects and serves zone snapshots.
type Service struct {
	// mu serializes writers (Ingest, Subscribe) and guards seen; readers
	// of view never take it.
	mu   sync.Mutex
	view atomic.Pointer[view]
	seen map[string]presence // the presence index, updated in place
	subs []func(*zoneset.Snapshot)
}

// New creates an empty service.
func New() *Service {
	s := &Service{seen: make(map[string]presence)}
	s.view.Store(emptyView)
	return s
}

// Collect attaches the service to a registry's snapshot publications.
// Non-participating (ccTLD) registries are ignored, mirroring reality.
func (s *Service) Collect(reg *registry.Registry) {
	if !reg.InCZDS() {
		return
	}
	reg.Subscribe(s.Ingest)
}

// Ingest stores a published snapshot, updates the presence index and the
// day-over-day diff statistics, and notifies subscribers. Each domain's
// interval updates in place as the snapshot is walked; the per-TLD view
// then becomes visible in one atomic swap, so "in the latest snapshot"
// never outruns "ever seen".
func (s *Service) Ingest(snap *zoneset.Snapshot) {
	s.mu.Lock()
	for _, dom := range snap.Domains() {
		p, ok := s.seen[dom]
		if !ok {
			s.seen[dom] = presence{first: snap.Taken, last: snap.Taken}
			continue
		}
		if snap.Taken.After(p.last) {
			p.last = snap.Taken
		}
		if snap.Taken.Before(p.first) {
			p.first = snap.Taken
		}
		s.seen[dom] = p
	}

	cur := s.view.Load()
	next := &view{
		latest: maps.Clone(cur.latest),
		stats:  maps.Clone(cur.stats),
	}
	prev := next.latest[snap.TLD]
	st := next.stats[snap.TLD]
	// The first collected snapshot of a TLD is a baseline: its
	// delegations count as seen, not as newly registered.
	if prev != nil {
		d := zoneset.Compare(prev, snap)
		st.Added += int64(len(d.Added))
		st.Removed += int64(len(d.Removed))
		st.Changed += int64(len(d.Changed))
	}
	next.stats[snap.TLD] = st
	next.latest[snap.TLD] = snap
	s.view.Store(next)
	subs := make([]func(*zoneset.Snapshot), len(s.subs))
	copy(subs, s.subs)
	s.mu.Unlock()
	for _, fn := range subs {
		fn(snap)
	}
}

// Subscribe registers fn for every future ingested snapshot.
func (s *Service) Subscribe(fn func(*zoneset.Snapshot)) {
	s.mu.Lock()
	s.subs = append(s.subs, fn)
	s.mu.Unlock()
}

// Latest returns the most recent snapshot for tld.
func (s *Service) Latest(tld string) (*zoneset.Snapshot, error) {
	snap := s.view.Load().latest[dnsname.Canonical(tld)]
	if snap == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoZone, tld)
	}
	return snap, nil
}

// Stats returns the accumulated zone-diff statistics for tld.
func (s *Service) Stats(tld string) DiffStats {
	return s.view.Load().stats[dnsname.Canonical(tld)]
}

// TLDs returns the zones with at least one collected snapshot, sorted.
func (s *Service) TLDs() []string {
	v := s.view.Load()
	out := make([]string, 0, len(v.latest))
	for tld := range v.latest {
		out = append(out, tld)
	}
	sort.Strings(out)
	return out
}

// InLatest reports whether domain appears in the latest snapshot of its
// TLD. Domains of uncollected TLDs report false — from the pipeline's
// perspective they are always "not in the zone files" (which is why the
// paper can apply its method to ccTLDs at all). This is the ingest hot
// path; it takes no lock.
func (s *Service) InLatest(domain string) bool {
	domain = dnsname.Canonical(domain)
	snap := s.view.Load().latest[dnsname.TLD(domain)]
	return snap != nil && snap.Contains(domain)
}

// FirstSeen returns the Taken time of the first snapshot that contained
// domain, across the whole collection. Off the ingest hot path, it takes
// the service's lock.
func (s *Service) FirstSeen(domain string) (time.Time, bool) {
	domain = dnsname.Canonical(domain)
	s.mu.Lock()
	p, ok := s.seen[domain]
	s.mu.Unlock()
	return p.first, ok
}

// EverSeen reports whether domain appeared in any collected snapshot whose
// Taken time falls within [from, to]. This implements the paper's
// transient test: "domains that do not appear in our zone collection
// during the window ±3 days".
func (s *Service) EverSeen(domain string, from, to time.Time) bool {
	domain = dnsname.Canonical(domain)
	s.mu.Lock()
	p, ok := s.seen[domain]
	s.mu.Unlock()
	if !ok {
		return false
	}
	// Presence is an interval [first, last]; it intersects [from, to]
	// unless it ends before or starts after.
	return !p.last.Before(from) && !p.first.After(to)
}
