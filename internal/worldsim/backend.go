package worldsim

import (
	"net/netip"
	"strings"

	"darkdns/internal/dnsname"
	"darkdns/internal/measure"
	"darkdns/internal/registry"
)

// probeBackend implements measure.Backend over the simulated registries:
// NS queries consult the live TLD zone (exactly what querying the TLD
// authoritative servers observes), and address queries resolve to the
// registration's web host while the domain is delegated. Every answer is
// a slice built once — by the zone rebuild, at registration, or on a
// record's first mail probe — and shared read-only across probes, so a
// probe of an unchanged domain allocates nothing.
//
// It also issues measure handles: the fleet resolves a watched name once,
// and every later probe of it is a read through its registry handle — no
// canonicalisation, TLD split or name-keyed map on the probe path. The
// handles notify: the registry tells the fleet when a watched answer is
// republished, so a round reads only the names whose answer moved.
type probeBackend struct{ w *World }

// ProbeBackend returns the measurement fleet's view of this world.
func (w *World) ProbeBackend() measure.Backend { return probeBackend{w} }

// probeHandle is one name resolved against the world: its registry's
// handle and the mail answers its ground-truth record publishes (zero for
// a name with no record, a ghost, or a record publishing neither). Both
// are fixed at Resolve — the domain store is frozen after New — and every
// probe reads the registry's current state through the handle, so a
// probeHandle is immutable and safe for concurrent probes. Handles are
// carved from the world's slab: a fleet keeps each for its watch's life.
type probeHandle struct {
	reg  registry.Handle
	mail mailAnswers
}

// Resolve implements the fleet's optional handle method. The registry
// creates a ledger record for a name not yet, or never to be, registered:
// ghosts and transients are watched exactly then.
func (b probeBackend) Resolve(domain string) measure.Handle {
	domain = dnsname.Canonical(domain)
	var reg registry.Handle
	if r := b.w.Registries[dnsname.TLD(domain)]; r != nil {
		reg = r.Resolve(domain)
	}
	mail := b.w.Domains.mailAnswers(domain)
	b.w.slabMu.Lock()
	h := b.w.handles.New()
	b.w.slabMu.Unlock()
	*h = probeHandle{reg: reg, mail: mail}
	return h
}

// Probe answers one probe of the resolved name.
func (h *probeHandle) Probe(mail bool) measure.ProbeResult {
	return probeResult(h.reg.Answer(), mail, h.mail)
}

// Notify implements the fleet's optional change notification. The mail
// answers are fixed at Resolve, so the registry answer is all that can
// change a probe, and its record tells w of every change.
func (h *probeHandle) Notify(w measure.Watcher) { h.reg.Listen(w) }

// probeResult is the one definition of a name's probe answers, which
// Probe and every by-name method below are views of: the registry's
// answer (NS, A and exact-name-in-zone, one consistent read) plus the
// record's mail answers m, only when asked for and only while the name
// itself is in its TLD zone.
func probeResult(ans registry.Answer, mail bool, m mailAnswers) (pr measure.ProbeResult) {
	pr.NS, pr.InZone, pr.V4 = ans.NS, ans.Delegated, ans.A
	if mail && ans.InZone {
		pr.MX, pr.TXT = m.mx, m.txt
	}
	return pr
}

// answer is Resolve without creating anything, then Probe's read: one
// canonicalisation, one registry lookup, one registry read, and the
// ground-truth record's mail answers looked up only when asked for and
// only while the name itself is in its TLD zone.
func (b probeBackend) answer(domain string, mail bool) measure.ProbeResult {
	domain = dnsname.Canonical(domain)
	reg := b.w.Registries[dnsname.TLD(domain)]
	if reg == nil {
		return measure.ProbeResult{}
	}
	ans := reg.Answer(domain)
	var m mailAnswers
	if mail && ans.InZone {
		m = b.w.Domains.mailAnswers(domain)
	}
	return probeResult(ans, mail, m)
}

func (b probeBackend) AuthoritativeNS(domain string) ([]string, bool) {
	pr := b.answer(domain, false)
	return pr.NS, pr.InZone
}

func (b probeBackend) LookupA(domain string) []netip.Addr { return b.answer(domain, false).V4 }

func (b probeBackend) LookupAAAA(domain string) []netip.Addr { return nil }

// ProbeBatch implements measure.BatchBackend: one positional result per
// requested name, each answered in a single pass. The fleet reads through
// handles instead; this is the path of a wrapper that hides Resolve.
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
