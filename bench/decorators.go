package main

// Timing decorators for the two interface seams a campaign crosses
// millions of times. Each must expose exactly the optional interfaces of
// the value it wraps: the fleet and the pipeline type-assert for them and
// take a different code path when they are missing.

import (
	"context"
	"net/netip"
	"sync/atomic"
	"time"

	"darkdns/internal/measure"
	"darkdns/internal/rdap"
)

type tracedBackend struct {
	inner measure.Backend
	s     *seam
}

func (b tracedBackend) AuthoritativeNS(domain string) ([]string, bool) {
	t := b.s.enter()
	ns, ok := b.inner.AuthoritativeNS(domain)
	b.s.exit(t)
	return ns, ok
}

func (b tracedBackend) LookupA(domain string) []netip.Addr {
	t := b.s.enter()
	v := b.inner.LookupA(domain)
	b.s.exit(t)
	return v
}

func (b tracedBackend) LookupAAAA(domain string) []netip.Addr {
	t := b.s.enter()
	v := b.inner.LookupAAAA(domain)
	b.s.exit(t)
	return v
}

type tracedBatch struct {
	inner measure.BatchBackend
	s     *seam
}

func (b tracedBatch) ProbeBatch(domains []string, mail bool) []measure.ProbeResult {
	t := b.s.enter()
	v := b.inner.ProbeBatch(domains, mail)
	b.s.exit(t)
	return v
}

type tracedMail struct {
	inner measure.MailBackend
	s     *seam
}

func (b tracedMail) LookupMX(domain string) []string {
	t := b.s.enter()
	v := b.inner.LookupMX(domain)
	b.s.exit(t)
	return v
}

func (b tracedMail) LookupTXT(domain string) []string {
	t := b.s.enter()
	v := b.inner.LookupTXT(domain)
	b.s.exit(t)
	return v
}

// traceBackend wraps inner so that every call is folded into s, and
// returns a value with the same optional interface set as inner.
func traceBackend(inner measure.Backend, s *seam) measure.Backend {
	base := tracedBackend{inner, s}
	bb, isBatch := inner.(measure.BatchBackend)
	mb, isMail := inner.(measure.MailBackend)
	switch {
	case isBatch && isMail:
		return struct {
			tracedBackend
			tracedBatch
			tracedMail
		}{base, tracedBatch{bb, s}, tracedMail{mb, s}}
	case isBatch:
		return struct {
			tracedBackend
			tracedBatch
		}{base, tracedBatch{bb, s}}
	case isMail:
		return struct {
			tracedBackend
			tracedMail
		}{base, tracedMail{mb, s}}
	}
	return base
}

type tracedQuerier struct {
	inner  rdap.Querier
	s      *seam
	failed *atomic.Int64
}

func (q tracedQuerier) Domain(ctx context.Context, name string) (*rdap.Record, error) {
	t := q.s.enter()
	rec, err := q.inner.Domain(ctx, name)
	q.s.exit(t)
	if err != nil {
		q.failed.Add(1)
	}
	return rec, err
}

type tracedQuerierAt struct {
	tracedQuerier
	at rdap.QuerierAt
}

func (q tracedQuerierAt) DomainAt(ctx context.Context, name string, now time.Time) (*rdap.Record, error) {
	t := q.s.enter()
	rec, err := q.at.DomainAt(ctx, name, now)
	q.s.exit(t)
	if err != nil {
		q.failed.Add(1)
	}
	return rec, err
}

// traceQuerier is traceBackend for the RDAP seam. A querier that lost its
// QuerierAt would silently push the lookahead drain onto untagged
// scheduling.
func traceQuerier(inner rdap.Querier, s *seam, failed *atomic.Int64) rdap.Querier {
	base := tracedQuerier{inner, s, failed}
	if at, ok := inner.(rdap.QuerierAt); ok {
		return tracedQuerierAt{base, at}
	}
	return base
}
