// Package rdap models the Registration Data Access Protocol (RFC
// 7480/9083) lookups DarkDNS step 2 makes: the record it extracts, the
// failure modes it sees, and a Mux that routes each domain to its TLD's
// backend, as the IANA bootstrap registry does. The pipeline
// (internal/core) makes one lookup per candidate from one clock timer and
// never retries a failure (DESIGN.md §6); the ≈3 % of collections that
// fail in §4.2 are drawn from core.Config.RDAPFailureRate, not from a
// rate limiter.
//
// Concurrency model: the Mux routing table is an immutable map behind
// atomic.Pointer, swapped copy-on-write. Nothing on the lookup path takes
// a lock.
package rdap

import (
	"context"
	"errors"
	"fmt"
	"time"

	"darkdns/internal/dnsname"
)

// Record is the registration data DarkDNS extracts from an RDAP response.
type Record struct {
	Domain     string
	Registrar  string
	Registered time.Time
	Status     []string
}

// Canonical RDAP failure modes observed by the pipeline.
var (
	ErrNotFound    = errors.New("rdap: domain not found")
	ErrRateLimited = errors.New("rdap: rate limited")
	ErrNotSynced   = errors.New("rdap: registration not yet available")
	ErrUnavailable = errors.New("rdap: service unavailable")
)

// Querier is the pipeline's view of RDAP: one lookup, no retries.
type Querier interface {
	Domain(ctx context.Context, name string) (*Record, error)
}

// QuerierAt has no implementer and nothing asserts it: step 2 calls
// Querier.Domain from a timer that fires at its own instant. The type
// remains only because bench/decorators.go names it; it goes with that
// use in the benchmark PR that purges the shims.
type QuerierAt interface {
	DomainAt(ctx context.Context, name string, now time.Time) (*Record, error)
}

// Dispatcher is empty and has no constructor: step 2 is one clock timer
// per candidate, and core.Pipeline.Dispatcher always returns nil. The type
// remains only because bench/campaign.go names it; it goes with that
// call in the benchmark PR that purges the shims.
type Dispatcher struct{}

// Backend supplies registration data for one TLD's RDAP service.
type Backend interface {
	// RDAPDomain returns the record, ErrNotFound, or ErrNotSynced.
	RDAPDomain(name string) (*Record, error)
}

// BackendFunc adapts a function to Backend.
type BackendFunc func(name string) (*Record, error)

// RDAPDomain implements Backend.
func (f BackendFunc) RDAPDomain(name string) (*Record, error) { return f(name) }

// Mux routes domains to per-TLD backends, like the IANA bootstrap registry.
//
// Routing is on the lookup hot path — every candidate's lookup resolves
// its backend through the Mux — so the routing table is a copy-on-write
// map (cowMap): lookups take no lock; registrations (bootstrap-table
// updates, rare) pay the clone.
type Mux struct {
	backends cowMap[Backend]
}

// NewMux creates an empty router.
func NewMux() *Mux {
	return &Mux{}
}

// Handle registers the backend for tld. Safe for concurrent use with
// RDAPDomain; in-flight lookups keep routing through the previous table.
func (m *Mux) Handle(tld string, b Backend) {
	m.backends.set(dnsname.Canonical(tld), b)
}

// RDAPDomain implements Backend by routing on the domain's TLD. Lock-free.
func (m *Mux) RDAPDomain(name string) (*Record, error) {
	name = dnsname.Canonical(name)
	b, ok := m.backends.get(dnsname.TLD(name))
	if !ok {
		return nil, fmt.Errorf("%w: no RDAP service for %q", ErrUnavailable, dnsname.TLD(name))
	}
	return b.RDAPDomain(name)
}
