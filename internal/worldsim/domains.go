// The world's ground-truth domain store: one map from name to record.
// The commit (builder.go) is its only writer and runs before New
// returns; afterwards the store is frozen, and readers (experiments,
// examples, the probe backend) Get/Range/Len it without a lock.
package worldsim

import (
	"strings"
	"sync"

	"darkdns/internal/slab"
)

// mailAnswers is one record's MX and SPF TXT answers as the probe backend
// serves them. Both slices are built once, shared by every probe, and
// read-only.
type mailAnswers struct{ mx, txt []string }

// DomainStore holds a world's ground-truth registrations keyed by domain
// name; readers use Get, Range and Len. Ghosts are absent: they have no
// registration. Iteration order is unspecified.
type DomainStore struct {
	m map[string]*Domain

	// mailMu guards the one state written after New: the probe backend's
	// MX/TXT answers, filled on a record's first mail probe (never at
	// build time, which stays free of per-domain answer allocations) from
	// the fleet's concurrent probe slices. spf holds one SPF TXT answer
	// per web-host provider (the policy text depends on nothing else),
	// shared by every record hosted there. Each record's MX pair is
	// carved from mx and its two names from mxText, never to be written
	// again; the cache keeps every pair for the store's life, so their
	// chunks live as long.
	mailMu sync.RWMutex
	mail   map[*Domain]mailAnswers
	spf    map[string][]string
	mx     slab.Of[[2]string]
	mxText strings.Builder
}

// mxTextChunk is the byte size of an MX text chunk, the size of a slab
// chunk.
const mxTextChunk = 16 << 10

// Get returns the ground-truth record for name, or nil when the world
// never generated it (ghosts return nil: they have no registration).
func (s *DomainStore) Get(name string) *Domain { return s.m[name] }

// mailAnswers returns the MX and SPF TXT answers name's ground truth
// publishes — zero for unknown names, ghosts, and records publishing
// neither, all without touching the cache. The steady state is one read
// lock; only a record's first probe takes the write lock and builds. An
// MX answer costs that probe no allocation of its own: both names are
// substrings of a text chunk (mxNames), in an array from the mx slab.
func (s *DomainStore) mailAnswers(name string) mailAnswers {
	d := s.m[name]
	if d == nil || !(d.HasMX || d.HasSPF) {
		return mailAnswers{}
	}
	s.mailMu.RLock()
	ans, ok := s.mail[d]
	s.mailMu.RUnlock()
	if ok {
		return ans
	}
	s.mailMu.Lock()
	defer s.mailMu.Unlock()
	if ans, ok = s.mail[d]; ok {
		return ans // a concurrent first probe built it; share its slices
	}
	if d.HasMX {
		mx := s.mx.New()
		mx[0], mx[1] = s.mxNames(d.Name)
		ans.mx = mx[:]
	}
	if d.HasSPF {
		txt, ok := s.spf[d.WebHost]
		if !ok {
			if s.spf == nil {
				s.spf = make(map[string][]string)
			}
			txt = []string{"v=spf1 include:_spf." + d.WebHostSPFDomain() + " -all"}
			s.spf[d.WebHost] = txt
		}
		ans.txt = txt
	}
	if s.mail == nil {
		s.mail = make(map[*Domain]mailAnswers)
	}
	s.mail[d] = ans
	return ans
}

// mxNames writes "mx1.<name>mx2.<name>" to the MX text chunk and returns
// its two names as substrings of the chunk's String, as the compile's
// name arena does, so a chunk of names costs one allocation. A full
// chunk is left to the names already carved from it and a fresh one
// begins: a Builder never changes bytes it has written. The caller holds
// mailMu for writing.
func (s *DomainStore) mxNames(name string) (mx1, mx2 string) {
	n := 2 * (len("mx1.") + len(name))
	if s.mxText.Cap()-s.mxText.Len() < n {
		s.mxText.Reset()
		s.mxText.Grow(max(mxTextChunk, n))
	}
	start := s.mxText.Len()
	s.mxText.WriteString("mx1.")
	s.mxText.WriteString(name)
	mid := s.mxText.Len()
	s.mxText.WriteString("mx2.")
	s.mxText.WriteString(name)
	text := s.mxText.String()
	return text[start:mid], text[mid:]
}

// Len returns the number of distinct registrations in the store.
func (s *DomainStore) Len() int { return len(s.m) }

// Range calls fn for every record. Iteration order is unspecified —
// callers needing a canonical order collect names and sort (see
// worldFingerprint).
func (s *DomainStore) Range(fn func(*Domain)) {
	for _, d := range s.m {
		fn(d)
	}
}
