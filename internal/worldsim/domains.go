// The world's ground-truth domain store, striped over a power-of-two
// shard count keyed on dnsname.Hash64 so the parallel commit engine's
// per-layout installs of distinct names land on independent locks and
// commute. After New returns the store is effectively frozen — readers
// (experiments, examples, the probe backend) only Get/Range/Len.
package worldsim

import (
	"sync"
	"sync/atomic"

	"darkdns/internal/dnsname"
)

// domainShards is the stripe count of the domain store. Power of two for
// cheap masking; 64 stripes (matching core's candidate store) keep an
// 8–16-wide commit pool from serializing on one lock even when a chunk's
// names cluster.
const domainShards = 64

// domainShard is one stripe: the ground-truth records plus the ghost
// names installed on it (ghosts are deliberately absent from the record
// map — they have no registration — but participate in duplicate
// detection).
type domainShard struct {
	mu     sync.RWMutex
	m      map[string]domainEntry
	ghosts map[string]struct{}
	// mail holds the probe backend's MX/TXT answers for the records on
	// this stripe that publish any, filled on a record's first mail probe
	// — never at build time, which stays free of per-domain answer
	// allocations.
	mail map[*Domain]mailAnswers
}

// mailAnswers is one record's MX and SPF TXT answers as the probe backend
// serves them. Both slices are built once, shared by every probe, and
// read-only.
type mailAnswers struct{ mx, txt []string }

// domainEntry pairs a record with the canonical rank (layout index) of
// its installer. Ranks only matter for duplicate names — possible only
// under off-contract duplicate-TLD plan configs — where the highest
// rank wins, reproducing the serial commit's canonical-order
// last-writer at any pool width.
type domainEntry struct {
	d    *Domain
	rank int
}

// DomainStore holds a world's ground-truth registrations keyed by domain
// name. It replaces the former exposed map[string]*Domain so the commit
// engine can install layouts concurrently; readers use Get, Range and
// Len. Like the map it replaces, iteration order is unspecified.
type DomainStore struct {
	shards [domainShards]domainShard
	count  atomic.Int64

	// spf holds one SPF TXT answer per web-host provider (the policy
	// text depends on nothing else), shared by every record hosted there.
	// spfMu nests inside a shard lock (first mail probe), never around one.
	spfMu sync.Mutex
	spf   map[string][]string
}

// newDomainStore pre-sizes a store for about hint records.
func newDomainStore(hint int) *DomainStore {
	s := &DomainStore{}
	per := hint/domainShards + 1
	for i := range s.shards {
		s.shards[i].m = make(map[string]domainEntry, per)
	}
	return s
}

// shard maps a name to its stripe (same hash the pipeline's candidate
// store and the fleet's watch registry stripe on).
func (s *DomainStore) shard(name string) *domainShard {
	return &s.shards[dnsname.Hash64(name)&(domainShards-1)]
}

// Get returns the ground-truth record for name, or nil when the world
// never generated it (ghosts return nil: they have no registration).
// Read lock only: the fleet's probe rounds call this concurrently and
// must not serialize within a shard.
func (s *DomainStore) Get(name string) *Domain {
	sh := s.shard(name)
	sh.mu.RLock()
	d := sh.m[name].d
	sh.mu.RUnlock()
	return d
}

// mailAnswers returns the MX and SPF TXT answers name's ground truth
// publishes — zero for unknown names, ghosts, and records publishing
// neither, all without touching the cache. The steady state is one read
// lock; only a record's first probe takes the write lock and builds.
func (s *DomainStore) mailAnswers(name string) mailAnswers {
	sh := s.shard(name)
	sh.mu.RLock()
	d := sh.m[name].d
	if d == nil || !(d.HasMX || d.HasSPF) {
		sh.mu.RUnlock()
		return mailAnswers{}
	}
	ans, ok := sh.mail[d]
	sh.mu.RUnlock()
	if ok {
		return ans
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ans, ok = sh.mail[d]; ok {
		return ans // a concurrent first probe built it; share its slices
	}
	if d.HasMX {
		ans.mx = []string{"mx1." + d.Name, "mx2." + d.Name}
	}
	if d.HasSPF {
		ans.txt = s.spfAnswer(d)
	}
	if sh.mail == nil {
		sh.mail = make(map[*Domain]mailAnswers)
	}
	sh.mail[d] = ans
	return ans
}

// spfAnswer returns the TXT answer shared by every record on d's web host.
func (s *DomainStore) spfAnswer(d *Domain) []string {
	s.spfMu.Lock()
	defer s.spfMu.Unlock()
	txt, ok := s.spf[d.WebHost]
	if !ok {
		if s.spf == nil {
			s.spf = make(map[string][]string)
		}
		txt = []string{"v=spf1 include:_spf." + d.WebHostSPFDomain() + " -all"}
		s.spf[d.WebHost] = txt
	}
	return txt
}

// Len returns the number of distinct registrations in the store.
func (s *DomainStore) Len() int { return int(s.count.Load()) }

// Range calls fn for every record. Iteration order is unspecified, as it
// was for the map this store replaces — callers needing a canonical
// order collect names and sort (see worldFingerprint). fn runs with no
// shard lock held, so it may call Get/Len freely.
func (s *DomainStore) Range(fn func(*Domain)) {
	var buf []*Domain
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		buf = buf[:0]
		for _, e := range sh.m {
			buf = append(buf, e.d)
		}
		sh.mu.RUnlock()
		for _, d := range buf {
			fn(d)
		}
	}
}

// install records d under its installer's canonical rank, reporting
// whether the name was already present as a registration or a ghost.
// Concurrent installs of distinct names commute (independent keys,
// per-shard locks), which is what lets the commit engine run layouts in
// parallel at any width; duplicates (off-contract duplicate-TLD plans)
// stay deterministic too — the highest rank wins regardless of arrival
// order, and the duplicate report is exact because every install after
// a name's first observes it present.
func (s *DomainStore) install(d *Domain, rank int) (dup bool) {
	sh := s.shard(d.Name)
	sh.mu.Lock()
	prev, dupD := sh.m[d.Name]
	_, dupG := sh.ghosts[d.Name]
	if !dupD || rank >= prev.rank {
		sh.m[d.Name] = domainEntry{d, rank}
	}
	sh.mu.Unlock()
	if !dupD {
		s.count.Add(1)
	}
	return dupD || dupG
}

// installGhost records a ghost name for duplicate detection, reporting
// whether it collided with an existing registration or ghost. The ghost
// ledger itself (World.Ghosts) is appended serially in canonical order
// by the commit engine; this set only backs the uniqueness invariant.
func (s *DomainStore) installGhost(name string) (dup bool) {
	sh := s.shard(name)
	sh.mu.Lock()
	_, dupD := sh.m[name]
	_, dupG := sh.ghosts[name]
	if sh.ghosts == nil {
		sh.ghosts = make(map[string]struct{})
	}
	sh.ghosts[name] = struct{}{}
	sh.mu.Unlock()
	return dupD || dupG
}
