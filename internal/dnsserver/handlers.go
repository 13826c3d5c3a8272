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
}

// Handle implements Handler.
func (h *TLDHandler) Handle(q dnsmsg.Question) *dnsmsg.Message {
	tld := h.Registry.TLD()
	resp := &dnsmsg.Message{Header: dnsmsg.Header{Response: true, Authoritative: true}}
	resp.Questions = []dnsmsg.Question{q}
	name := dnsname.Canonical(q.Name)
	if !dnsname.IsSubdomain(name, tld) {
		resp.Header.RCode = dnsmsg.RCodeRefused
		return resp
	}
	if name == tld {
		switch q.Type {
		case dnsmsg.TypeSOA, dnsmsg.TypeANY:
			resp.Answers = append(resp.Answers, h.soa())
		case dnsmsg.TypeNS:
			resp.Answers = append(resp.Answers, dnsmsg.Record{
				Name: tld, Type: dnsmsg.TypeNS, Class: dnsmsg.ClassIN, TTL: 86400, NS: "a.nic." + tld,
			})
		}
		return resp
	}
	ns, ok := h.Registry.Delegation(name)
	if !ok {
		resp.Header.RCode = dnsmsg.RCodeNXDomain
		resp.Authority = append(resp.Authority, h.soa())
		return resp
	}
	if q.Type == dnsmsg.TypeNS || q.Type == dnsmsg.TypeANY {
		resp.Answers = make([]dnsmsg.Record, 0, len(ns))
		for _, target := range ns {
			resp.Answers = append(resp.Answers, dnsmsg.Record{
				Name: name, Type: dnsmsg.TypeNS, Class: dnsmsg.ClassIN, TTL: 3600, NS: target,
			})
		}
		return resp
	}
	// Non-NS query at the TLD server: referral (empty answer, NS in
	// authority) — the registry is not authoritative for host data.
	resp.Header.Authoritative = false
	resp.Authority = make([]dnsmsg.Record, 0, len(ns))
	for _, target := range ns {
		resp.Authority = append(resp.Authority, dnsmsg.Record{
			Name: name, Type: dnsmsg.TypeNS, Class: dnsmsg.ClassIN, TTL: 3600, NS: target,
		})
	}
	return resp
}

func (h *TLDHandler) soa() dnsmsg.Record {
	tld := h.Registry.TLD()
	return dnsmsg.Record{
		Name: tld, Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassIN, TTL: 900,
		SOA: dnsmsg.SOAData{
			MName: "a.nic." + tld, RName: "hostmaster.nic." + tld,
			Serial: h.Registry.Serial(), Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 60,
		},
	}
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
