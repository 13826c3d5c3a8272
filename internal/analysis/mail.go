package analysis

import "darkdns/internal/measure"

// MailAdoption is the future-work mail-infrastructure measurement (§5):
// adoption of MX records and SPF policies among transient vs long-lived
// newly registered domains, from the fleet's extended probes.
type MailAdoption struct {
	TransientTotal int
	TransientMX    int
	TransientSPF   int
	NormalTotal    int
	NormalMX       int
	NormalSPF      int
}

// mailStats computes MX/SPF adoption over the fleet's watched domains,
// split by whether the domain was a confirmed transient. Requires a run
// whose fleet probed with ProbeMail enabled; otherwise all counters stay
// zero (the caller can detect this via the totals).
func mailStats(r *Results, states []*measure.DomainState) MailAdoption {
	var m MailAdoption
	for _, st := range states {
		if !st.EverInZone {
			continue
		}
		// Confirmed is sorted by domain, as Candidates() is.
		if byDomain(r.Report.Confirmed, st.Domain, candidateDomain) != nil {
			m.TransientTotal++
			if st.HasMX {
				m.TransientMX++
			}
			if st.HasSPF {
				m.TransientSPF++
			}
		} else {
			m.NormalTotal++
			if st.HasMX {
				m.NormalMX++
			}
			if st.HasSPF {
				m.NormalSPF++
			}
		}
	}
	return m
}
