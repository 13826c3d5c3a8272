// Package rzu implements the Rapid Zone Update service the paper's
// discussion section advocates resurrecting (§5, Appendix B): a
// subscription feed of TLD zone changes published every few minutes
// instead of daily, with an access-control framework of the kind ICANN's
// RDRS applies to registration data.
//
// Verisign ran such a service for .com/.net in 2004–2008: internal zone
// rebuilds every 3 minutes, subscriber-visible updates every 5. DarkDNS
// argues that a safeguarded revival would close most of the transient
// domain blind spot; this package exists so the claim can be measured
// (the RZU lines of analysis.Outcome) rather than argued.
package rzu

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"darkdns/internal/dnsname"
	"darkdns/internal/registry"
	"darkdns/internal/simclock"
	"darkdns/internal/zoneset"
)

// ChangeKind labels one zone change.
type ChangeKind uint8

// Zone change kinds, matching Verisign's published service description
// (domain names, nameservers: additions, deletions and modifications).
const (
	Added ChangeKind = iota
	Removed
	Modified
)

// String names the kind.
func (k ChangeKind) String() string {
	switch k {
	case Added:
		return "added"
	case Removed:
		return "removed"
	case Modified:
		return "modified"
	}
	return "unknown"
}

// Change is one entry in an update batch.
type Change struct {
	Kind   ChangeKind
	Domain string
	NS     []string // new NS set for Added/Modified
}

// Batch is one published update: all changes since the previous batch.
type Batch struct {
	TLD      string
	Serial   uint32
	Produced time.Time
	Changes  []Change
}

// Errors returned by the service.
var (
	ErrNotAuthorized = errors.New("rzu: subscriber not authorized")
	ErrUnknownZone   = errors.New("rzu: zone not published via RZU")
)

// Subscriber receives update batches.
type Subscriber func(Batch)

// AccessPolicy gates subscriptions — the "framework to safeguard against
// abuses" the paper calls for. Implementations might check vetting
// status, rate-limit, or watermark feeds per subscriber.
type AccessPolicy interface {
	// Authorize reports whether the named party may subscribe to tld.
	Authorize(party, tld string) bool
}

// AllowList is a minimal AccessPolicy: an explicit set of vetted parties
// (security researchers, law enforcement, operators).
type AllowList map[string]bool

// Authorize implements AccessPolicy.
func (a AllowList) Authorize(party, _ string) bool { return a[party] }

// Service publishes rapid zone updates for a set of registries.
type Service struct {
	policy   AccessPolicy
	interval time.Duration

	mu      sync.Mutex
	zones   map[string]*zoneState
	subs    map[string][]subscription
	history map[string][]Batch // retained batches per TLD
	keep    int
}

type zoneState struct {
	reg    *registry.Registry
	prev   *zoneset.Snapshot
	ticker *simclock.Ticker
}

type subscription struct {
	party string
	fn    Subscriber
}

// Config parameterizes the service.
type Config struct {
	// Interval is the publication cadence (Verisign: 5 minutes).
	Interval time.Duration
	// Policy gates subscriber access; nil refuses everyone.
	Policy AccessPolicy
	// KeepBatches bounds retained history per TLD (0 = 4096).
	KeepBatches int
}

// New creates an RZU service. Attach registries with Publish.
func New(cfg Config) *Service {
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Minute
	}
	keep := cfg.KeepBatches
	if keep <= 0 {
		keep = 4096
	}
	return &Service{
		policy:   cfg.Policy,
		interval: cfg.Interval,
		zones:    make(map[string]*zoneState),
		subs:     make(map[string][]subscription),
		history:  make(map[string][]Batch),
		keep:     keep,
	}
}

// Publish starts rapid updates for reg's zone on clk.
func (s *Service) Publish(reg *registry.Registry, clk simclock.Clock) {
	tld := reg.TLD()
	s.mu.Lock()
	if _, dup := s.zones[tld]; dup {
		s.mu.Unlock()
		return
	}
	st := &zoneState{reg: reg, prev: zoneset.NewSnapshot(tld, 0, clk.Now())}
	s.zones[tld] = st
	s.mu.Unlock()
	st.ticker = simclock.NewTicker(clk, s.interval, func(now time.Time) { s.tick(tld, now) })
}

// Stop halts publication for all zones.
func (s *Service) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.zones {
		if st.ticker != nil {
			st.ticker.Stop()
		}
	}
}

// Subscribe registers fn for tld's batches on behalf of party.
func (s *Service) Subscribe(party, tld string, fn Subscriber) error {
	tld = dnsname.Canonical(tld)
	if s.policy == nil || !s.policy.Authorize(party, tld) {
		return fmt.Errorf("%w: %s on %s", ErrNotAuthorized, party, tld)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.zones[tld]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownZone, tld)
	}
	s.subs[tld] = append(s.subs[tld], subscription{party: party, fn: fn})
	return nil
}

// History returns retained batches for tld (requires authorization).
func (s *Service) History(party, tld string) ([]Batch, error) {
	tld = dnsname.Canonical(tld)
	if s.policy == nil || !s.policy.Authorize(party, tld) {
		return nil, fmt.Errorf("%w: %s on %s", ErrNotAuthorized, party, tld)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Batch(nil), s.history[tld]...), nil
}

// tick diffs the zone against the previous publication and delivers the
// batch.
func (s *Service) tick(tld string, now time.Time) {
	s.mu.Lock()
	st := s.zones[tld]
	s.mu.Unlock()
	if st == nil {
		return
	}
	cur := st.reg.ZoneSnapshot(now)
	diff := zoneset.Compare(st.prev, cur)
	st.prev = cur
	if len(diff.Added)+len(diff.Removed)+len(diff.Changed) == 0 {
		return
	}
	batch := Batch{TLD: tld, Serial: cur.Serial, Produced: now}
	for _, d := range diff.Added {
		batch.Changes = append(batch.Changes, Change{Kind: Added, Domain: d, NS: cur.Get(d).NS})
	}
	for _, d := range diff.Removed {
		batch.Changes = append(batch.Changes, Change{Kind: Removed, Domain: d})
	}
	for _, d := range diff.Changed {
		batch.Changes = append(batch.Changes, Change{Kind: Modified, Domain: d, NS: cur.Get(d).NS})
	}
	sort.Slice(batch.Changes, func(i, j int) bool { return batch.Changes[i].Domain < batch.Changes[j].Domain })

	s.mu.Lock()
	h := append(s.history[tld], batch)
	if len(h) > s.keep {
		h = h[len(h)-s.keep:]
	}
	s.history[tld] = h
	subs := append([]subscription(nil), s.subs[tld]...)
	s.mu.Unlock()
	for _, sub := range subs {
		sub.fn(batch)
	}
}
