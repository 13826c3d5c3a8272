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
	"slices"
	"strings"
	"sync"
	"time"

	"darkdns/internal/dnsname"
	"darkdns/internal/registry"
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
	NS     []string // new NS set for Added/Modified; shared and read-only
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

// Service publishes rapid zone updates for a set of registries. Each
// registry publishes its zone's change on a rapid cadence of its own
// (registry.SubscribeEvery) at the service's interval; the service turns
// each diff into a batch and hands it to the subscribers the policy let
// in.
type Service struct {
	policy   AccessPolicy
	interval time.Duration

	mu    sync.Mutex
	zones map[string]*zoneState
}

type zoneState struct {
	reg  *registry.Registry
	stop func() // ends the registry's rapid cadence
	// subs is copy-on-write: a batch keeps the list it read while
	// Subscribe installs a new one.
	subs []Subscriber
}

// Config parameterizes the service.
type Config struct {
	// Interval is the publication cadence (Verisign: 5 minutes).
	Interval time.Duration
	// Policy gates subscriber access; nil refuses everyone.
	Policy AccessPolicy
}

// New creates an RZU service. Attach registries with Publish.
func New(cfg Config) *Service {
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Minute
	}
	return &Service{
		policy:   cfg.Policy,
		interval: cfg.Interval,
		zones:    make(map[string]*zoneState),
	}
}

// Publish starts rapid updates for reg's zone, on the registry's clock:
// the first batch, one interval from now, holds every name delegated then
// as added.
func (s *Service) Publish(reg *registry.Registry) {
	tld := reg.TLD()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.zones[tld]; dup {
		return
	}
	st := &zoneState{reg: reg}
	s.zones[tld] = st
	st.stop = reg.SubscribeEvery(s.interval, func(d zoneset.Diff) { s.tick(st, d) })
}

// Stop halts publication for all zones.
func (s *Service) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.zones {
		st.stop()
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
	st, ok := s.zones[tld]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownZone, tld)
	}
	st.subs = append(st.subs[:len(st.subs):len(st.subs)], fn)
	return nil
}

// tick turns one publication of the zone's rapid cadence into a batch
// sorted by domain, each added or modified name with the NS set the
// registry delegates it to, and delivers it. An interval with no change
// publishes no batch.
func (s *Service) tick(st *zoneState, d zoneset.Diff) {
	n := len(d.Added) + len(d.Removed) + len(d.Changed)
	if n == 0 {
		return
	}
	batch := Batch{TLD: d.TLD, Serial: d.Serial, Produced: d.Taken, Changes: make([]Change, 0, n)}
	for _, dom := range d.Added {
		ns, _ := st.reg.Delegation(dom)
		batch.Changes = append(batch.Changes, Change{Kind: Added, Domain: dom, NS: ns})
	}
	for _, dom := range d.Removed {
		batch.Changes = append(batch.Changes, Change{Kind: Removed, Domain: dom})
	}
	for _, dom := range d.Changed {
		ns, _ := st.reg.Delegation(dom)
		batch.Changes = append(batch.Changes, Change{Kind: Modified, Domain: dom, NS: ns})
	}
	slices.SortFunc(batch.Changes, func(a, b Change) int { return strings.Compare(a.Domain, b.Domain) })

	s.mu.Lock()
	subs := st.subs
	s.mu.Unlock()
	for _, fn := range subs {
		fn(batch)
	}
}
