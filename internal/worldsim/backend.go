package worldsim

import (
	"net/netip"
	"strings"

	"darkdns/internal/dnsname"
	"darkdns/internal/measure"
)

// probeBackend implements measure.Backend over the simulated registries:
// NS queries consult the live TLD zone (exactly what querying the TLD
// authoritative servers observes), and address queries resolve to the
// registration's web host while the domain is delegated. Every answer is
// a slice built once — by the zone rebuild, at registration, or on a
// record's first mail probe — and shared read-only across probes, so a
// probe of an unchanged domain allocates nothing.
type probeBackend struct{ w *World }

// ProbeBackend returns the measurement fleet's view of this world.
func (w *World) ProbeBackend() measure.Backend { return probeBackend{w} }

func (b probeBackend) AuthoritativeNS(domain string) ([]string, bool) {
	reg := b.w.Registries[dnsname.TLD(dnsname.Canonical(domain))]
	if reg == nil {
		return nil, false
	}
	return reg.Delegation(domain)
}

func (b probeBackend) LookupA(domain string) []netip.Addr {
	reg := b.w.Registries[dnsname.TLD(dnsname.Canonical(domain))]
	if reg == nil {
		return nil
	}
	return reg.WebAddrs(domain)
}

func (b probeBackend) LookupAAAA(domain string) []netip.Addr { return nil }

// ProbeBatch implements measure.BatchBackend: one positional result per
// requested name, computed from the same ground-truth reads the
// per-domain path makes, so batched rounds are byte-identical to serial
// ones at any probe width.
func (b probeBackend) ProbeBatch(domains []string, mail bool) []measure.ProbeResult {
	out := make([]measure.ProbeResult, len(domains))
	for i, domain := range domains {
		pr := &out[i]
		pr.NS, pr.InZone = b.AuthoritativeNS(domain)
		if !pr.InZone {
			continue
		}
		pr.V4 = b.LookupA(domain)
		pr.V6 = b.LookupAAAA(domain)
		if mail {
			ans := b.liveMail(domain)
			pr.MX, pr.TXT = ans.mx, ans.txt
		}
	}
	return out
}

// LookupMX implements measure.MailBackend from ground truth, answering
// only while the domain is delegated.
func (b probeBackend) LookupMX(domain string) []string { return b.liveMail(domain).mx }

// LookupTXT implements measure.MailBackend.
func (b probeBackend) LookupTXT(domain string) []string { return b.liveMail(domain).txt }

// liveMail returns domain's mail answers when it is currently in its TLD
// zone. Ground truth is consulted first: a record that publishes neither
// MX nor SPF never touches the registry.
func (b probeBackend) liveMail(domain string) mailAnswers {
	domain = dnsname.Canonical(domain)
	ans := b.w.Domains.mailAnswers(domain)
	if ans.mx == nil && ans.txt == nil {
		return ans
	}
	reg := b.w.Registries[dnsname.TLD(domain)]
	if reg == nil || !reg.InZone(domain) {
		return mailAnswers{}
	}
	return ans
}

// WebHostSPFDomain derives the SPF include target from the hosting
// provider name.
func (d *Domain) WebHostSPFDomain() string {
	switch d.WebHost {
	case "":
		return "example.net"
	default:
		return strings.ToLower(strings.ReplaceAll(d.WebHost, " ", "")) + ".com"
	}
}
