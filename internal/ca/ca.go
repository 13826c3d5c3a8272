// Package ca simulates certificate authorities issuing Domain-Validated
// certificates and logging precertificates to CT.
//
// The behaviour DarkDNS depends on (§3 and §4.2 of the paper):
//
//   - A CA validates domain control (here: the domain resolves in its TLD
//     zone) before issuing, then logs a precertificate.
//   - Per CA/Browser Forum BR §4.2.1, a CA may reuse cached validation
//     evidence for up to 398 days. A renewal request within that window is
//     issued WITHOUT re-validating — which is how certificates appear for
//     domains that no longer exist (cause iii of RDAP failures).
//   - Issuance lags domain activation: the domain must be resolvable
//     before validation succeeds, so cert-based detection time inherits
//     the TLD zone-update cadence (Figure 1).
//
// A request is the caller's: ValidationDelay draws how long validation
// takes, and Issue, called once that delay has passed, validates and logs
// at that instant. The CA keeps no per-request state, so a caller that
// already has a record per request — the world's lifecycle records —
// schedules that record as the request's timer.
package ca

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"darkdns/internal/ct"
	"darkdns/internal/dnsname"
	"darkdns/internal/simclock"
)

// DVReuseWindow is the CA/Browser Forum baseline maximum age of cached
// domain-validation evidence.
const DVReuseWindow = 398 * 24 * time.Hour

// Resolver is the CA's view of the DNS: whether a name currently resolves
// (i.e. its registered domain is delegated in the TLD zone).
type Resolver interface {
	Resolves(name string) bool
}

// ResolverFunc adapts a function to Resolver.
type ResolverFunc func(name string) bool

// Resolves implements Resolver.
func (f ResolverFunc) Resolves(name string) bool { return f(name) }

// Errors returned by Issue.
var (
	ErrValidationFailed = errors.New("ca: domain validation failed")
)

// Config parameterizes a CA.
type Config struct {
	Name string
	// ValidationDelay samples the time between an issuance request and
	// the precertificate hitting the CT log (ACME round trips, queueing).
	ValidationDelay func(rng *rand.Rand) time.Duration
}

// DefaultValidationDelay mimics observed ACME latencies: most issuances
// land within a few seconds to a couple of minutes.
func DefaultValidationDelay(rng *rand.Rand) time.Duration {
	// Log-normal-ish: 5 s base + exponential tail, capped at 10 min.
	d := 5*time.Second + time.Duration(rng.ExpFloat64()*float64(30*time.Second))
	if d > 10*time.Minute {
		d = 10 * time.Minute
	}
	return d
}

// CA is a simulated certificate authority.
type CA struct {
	cfg  Config
	clk  simclock.Clock
	rng  *rand.Rand
	res  Resolver
	logs []*ct.Log

	mu     sync.Mutex
	tokens map[string]time.Time // registered domain → validation time
	issued int64
	reused int64
}

// New creates a CA that validates against res and logs to logs.
func New(cfg Config, clk simclock.Clock, rng *rand.Rand, res Resolver, logs ...*ct.Log) *CA {
	if cfg.ValidationDelay == nil {
		cfg.ValidationDelay = DefaultValidationDelay
	}
	return &CA{cfg: cfg, clk: clk, rng: rng, res: res, logs: logs,
		tokens: make(map[string]time.Time)}
}

// Stats returns cumulative issuance counts: total issued and how many
// were issued off a cached DV token without fresh validation.
func (c *CA) Stats() (issued, reusedToken int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.issued, c.reused
}

// ValidationDelay draws, from the CA's generator, the time an issuance
// request spends in validation before its precertificate hits the CT log
// (ACME round trips, queueing). A caller that models a request waits out
// the delay on its own timer, then calls Issue: the CA keeps no request
// of its own.
func (c *CA) ValidationDelay() time.Duration { return c.cfg.ValidationDelay(c.rng) }

// Issue validates domain control for regDomain at the clock's instant —
// from the DV-token cache when its evidence is fresh enough, else against
// the resolver — and, on success, logs a precertificate for cn (plus
// optional extra SANs) to every configured log, returning the first log's
// entry. A failed validation logs nothing and returns
// ErrValidationFailed. Issue allocates nothing of its own.
func (c *CA) Issue(regDomain, cn string, sans []string) (ct.Entry, error) {
	now := c.clk.Now()
	ok, fresh := c.validate(dnsname.Canonical(regDomain), now)
	if !ok {
		return ct.Entry{}, ErrValidationFailed
	}
	c.mu.Lock()
	c.issued++
	if !fresh {
		c.reused++
	}
	c.mu.Unlock()
	return c.logPrecert(now, dnsname.Canonical(cn), sans), nil
}

// validate checks domain control, consulting the DV-token cache first.
// fresh is true when live validation was performed.
func (c *CA) validate(regDomain string, now time.Time) (ok, fresh bool) {
	c.mu.Lock()
	tok, has := c.tokens[regDomain]
	c.mu.Unlock()
	if has && now.Sub(tok) <= DVReuseWindow {
		return true, false // cached evidence, no live check
	}
	if !c.res.Resolves(regDomain) {
		return false, true
	}
	c.mu.Lock()
	c.tokens[regDomain] = now
	c.mu.Unlock()
	return true, true
}

// HasToken reports whether the CA holds unexpired validation evidence for
// regDomain at time now.
func (c *CA) HasToken(regDomain string, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	tok, has := c.tokens[dnsname.Canonical(regDomain)]
	return has && now.Sub(tok) <= DVReuseWindow
}

// SeedToken plants validation evidence obtained at when — used by the
// world simulator to model domains that existed (and were validated) in
// the past, before the simulation window (the ≈97 % DZDB-confirmed
// population in §4.2).
func (c *CA) SeedToken(regDomain string, when time.Time) {
	c.mu.Lock()
	c.tokens[dnsname.Canonical(regDomain)] = when
	c.mu.Unlock()
}

// logPrecert appends the precertificate to every configured CT log and
// returns the entry from the first log.
func (c *CA) logPrecert(now time.Time, cn string, sans []string) ct.Entry {
	var first ct.Entry
	for i, l := range c.logs {
		e := l.Append(now, ct.PreCertificate, c.cfg.Name, cn, sans, now)
		if i == 0 {
			first = e
		}
	}
	return first
}
