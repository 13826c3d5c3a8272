package dnsserver

import (
	"net/netip"
	"sync"

	"darkdns/internal/dnsmsg"
	"darkdns/internal/dnsname"
	"darkdns/internal/registry"
)

// TLDHandler answers as a TLD's authoritative nameserver, backed by the
// live registry zone: NS queries for delegated domains get referral-style
// answers; everything else under the TLD gets NXDOMAIN with the SOA in the
// authority section. This is the server the paper's measurement workers
// query directly for NS (step 3).
type TLDHandler struct {
	Registry *registry.Registry

	nicOnce sync.Once
	nicNS   string // a.nic.<tld>: the SOA's primary and the apex NS
	nicMbox string // hostmaster.nic.<tld>
}

// Compile-time check: a TLDHandler is served as a Handler (the probe_wire
// benchmark and the wire tests serve one).
var _ Handler = (*TLDHandler)(nil)

// Handle implements Handler.
func (h *TLDHandler) Handle(q dnsmsg.Question) *dnsmsg.Message {
	tld := h.Registry.TLD()
	name := dnsname.Canonical(q.Name)
	if !dnsname.IsSubdomain(name, tld) {
		resp, _ := newAnswer(q, 0)
		resp.Header.RCode = dnsmsg.RCodeRefused
		return resp
	}
	if name == tld {
		switch q.Type {
		case dnsmsg.TypeSOA, dnsmsg.TypeANY:
			resp, recs := newAnswer(q, 1)
			resp.Answers = append(recs, h.soa())
			return resp
		case dnsmsg.TypeNS:
			ns, _ := h.nic()
			resp, recs := newAnswer(q, 1)
			resp.Answers = append(recs, dnsmsg.Record{
				Name: tld, Type: dnsmsg.TypeNS, Class: dnsmsg.ClassIN, TTL: 86400, NS: ns,
			})
			return resp
		}
		resp, _ := newAnswer(q, 0)
		return resp
	}
	ns, ok := h.Registry.Delegation(name)
	if !ok {
		resp, recs := newAnswer(q, 1)
		resp.Header.RCode = dnsmsg.RCodeNXDomain
		resp.Authority = append(recs, h.soa())
		return resp
	}
	resp, delegation := newAnswer(q, len(ns))
	for _, target := range ns {
		delegation = append(delegation, dnsmsg.Record{
			Name: name, Type: dnsmsg.TypeNS, Class: dnsmsg.ClassIN, TTL: 3600, NS: target,
		})
	}
	if q.Type == dnsmsg.TypeNS || q.Type == dnsmsg.TypeANY {
		resp.Answers = delegation
		return resp
	}
	// Non-NS query at the TLD server: referral (empty answer, NS in
	// authority) — the registry is not authoritative for host data.
	resp.Header.Authoritative = false
	resp.Authority = delegation
	return resp
}

// nic returns the registry's nameserver and hostmaster names, built on
// first use and shared by every answer after it.
func (h *TLDHandler) nic() (ns, mbox string) {
	h.nicOnce.Do(func() {
		tld := h.Registry.TLD()
		h.nicNS, h.nicMbox = "a.nic."+tld, "hostmaster.nic."+tld
	})
	return h.nicNS, h.nicMbox
}

func (h *TLDHandler) soa() dnsmsg.Record {
	ns, mbox := h.nic()
	return dnsmsg.Record{
		Name: h.Registry.TLD(), Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassIN, TTL: 900,
		SOA: dnsmsg.SOAData{
			MName: ns, RName: mbox,
			Serial: h.Registry.Serial(), Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 60,
		},
	}
}

// newAnswer starts an authoritative response to q and returns it with an
// empty section that has room for n records. The message, its question
// and up to two records — one SOA, or the two nameservers RFC 1034 §4.1
// asks every delegation for — share one allocation sized to them.
func newAnswer(q dnsmsg.Question, n int) (*dnsmsg.Message, []dnsmsg.Record) {
	var msg *dnsmsg.Message
	var qs *[1]dnsmsg.Question
	var recs []dnsmsg.Record
	switch n {
	case 1:
		a := new(struct {
			msg dnsmsg.Message
			q   [1]dnsmsg.Question
			r   [1]dnsmsg.Record
		})
		msg, qs, recs = &a.msg, &a.q, a.r[:0]
	case 2:
		a := new(struct {
			msg dnsmsg.Message
			q   [1]dnsmsg.Question
			r   [2]dnsmsg.Record
		})
		msg, qs, recs = &a.msg, &a.q, a.r[:0]
	default: // no records, or a slice of their own
		a := new(struct {
			msg dnsmsg.Message
			q   [1]dnsmsg.Question
		})
		msg, qs = &a.msg, &a.q
		if n > 0 {
			recs = make([]dnsmsg.Record, 0, n)
		}
	}
	qs[0] = q
	msg.Header = dnsmsg.Header{Response: true, Authoritative: true}
	msg.Questions = qs[:]
	return msg, recs
}

// HostingHandler answers A/AAAA queries as the hosting provider's
// nameserver fleet would, from a table of web addresses. The world
// simulator keeps it in sync with registrations.
type HostingHandler struct {
	mu    sync.RWMutex
	addrs map[string][]netip.Addr
	ttl   uint32
}

// NewHostingHandler creates an empty hosting answer table with the given
// answer TTL (the paper's reactive measurements cap cache TTLs at 60 s,
// so short TTLs here exercise that clamping).
func NewHostingHandler(ttl uint32) *HostingHandler {
	return &HostingHandler{addrs: make(map[string][]netip.Addr), ttl: ttl}
}

// Set installs the answer addresses for name.
func (h *HostingHandler) Set(name string, addrs ...netip.Addr) {
	h.mu.Lock()
	h.addrs[dnsname.Canonical(name)] = addrs
	h.mu.Unlock()
}

// Remove deletes name's answers.
func (h *HostingHandler) Remove(name string) {
	h.mu.Lock()
	delete(h.addrs, dnsname.Canonical(name))
	h.mu.Unlock()
}

// Handle implements Handler.
func (h *HostingHandler) Handle(q dnsmsg.Question) *dnsmsg.Message {
	resp := &dnsmsg.Message{Header: dnsmsg.Header{Response: true, Authoritative: true}}
	resp.Questions = []dnsmsg.Question{q}
	h.mu.RLock()
	addrs, ok := h.addrs[dnsname.Canonical(q.Name)]
	h.mu.RUnlock()
	if !ok {
		resp.Header.RCode = dnsmsg.RCodeNXDomain
		return resp
	}
	for _, a := range addrs {
		switch {
		case a.Is4() && (q.Type == dnsmsg.TypeA || q.Type == dnsmsg.TypeANY):
			resp.Answers = append(resp.Answers, dnsmsg.Record{
				Name: dnsname.Canonical(q.Name), Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: h.ttl, A: a,
			})
		case a.Is6() && !a.Is4() && (q.Type == dnsmsg.TypeAAAA || q.Type == dnsmsg.TypeANY):
			resp.Answers = append(resp.Answers, dnsmsg.Record{
				Name: dnsname.Canonical(q.Name), Type: dnsmsg.TypeAAAA, Class: dnsmsg.ClassIN, TTL: h.ttl, AAAA: a,
			})
		}
	}
	return resp
}
