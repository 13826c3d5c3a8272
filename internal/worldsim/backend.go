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

// answer is the one definition of domain's probe answers, which every
// method below is a view of. A single pass: one canonicalisation, one
// registry resolve, one registry read (NS, A and exact-name-in-zone under
// one lock), and the ground-truth mail answers only when asked for and
// only while the name itself is in its TLD zone.
func (b probeBackend) answer(domain string, mail bool) (pr measure.ProbeResult) {
	domain = dnsname.Canonical(domain)
	reg := b.w.Registries[dnsname.TLD(domain)]
	if reg == nil {
		return pr
	}
	ans := reg.Answer(domain)
	pr.NS, pr.InZone, pr.V4 = ans.NS, ans.Delegated, ans.A
	if mail && ans.InZone {
		m := b.w.Domains.mailAnswers(domain)
		pr.MX, pr.TXT = m.mx, m.txt
	}
	return pr
}

func (b probeBackend) AuthoritativeNS(domain string) ([]string, bool) {
	pr := b.answer(domain, false)
	return pr.NS, pr.InZone
}

func (b probeBackend) LookupA(domain string) []netip.Addr { return b.answer(domain, false).V4 }

func (b probeBackend) LookupAAAA(domain string) []netip.Addr { return nil }

// ProbeBatch implements measure.BatchBackend: one positional result per
// requested name, each answered in a single pass.
func (b probeBackend) ProbeBatch(domains []string, mail bool) []measure.ProbeResult {
	out := make([]measure.ProbeResult, len(domains))
	for i, domain := range domains {
		out[i] = b.answer(domain, mail)
	}
	return out
}

// LookupMX implements measure.MailBackend from ground truth, answering
// only while the domain is delegated.
func (b probeBackend) LookupMX(domain string) []string { return b.answer(domain, true).MX }

// LookupTXT implements measure.MailBackend.
func (b probeBackend) LookupTXT(domain string) []string { return b.answer(domain, true).TXT }

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
