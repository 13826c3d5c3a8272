package analysis

import (
	"time"

	"darkdns/internal/worldsim"
)

// RZUWhatIf quantifies the paper's §5 proposal: if registries published
// rapid zone updates every interval (Verisign's historical service: 5
// minutes), what fraction of ground-truth fast-deleted domains would a
// subscriber observe, versus what the CT-based method actually caught?
//
// A fast-deleted domain is RZU-visible when it stays in the live zone
// across at least one publication boundary — i.e. its in-zone residency
// exceeds the gap to the next tick. Because the registry zone itself
// rebuilds on its own cadence, residency is lifetime minus the initial
// zone-entry wait; the computation below uses the ground-truth ledger's
// actual InZoneAt/OutOfZoneAt interval.
type RZUWhatIfResult struct {
	Interval     time.Duration
	FastDeleted  int // ground-truth fast-deleted registrations (gTLD)
	RZUVisible   int // would appear in ≥1 rapid update batch
	CTDetected   int // actually detected by the CT pipeline
	BothVisible  int
	RZUOnlyExtra int // visible to RZU but missed by CT
}

// RZUWhatIf computes visibility under a hypothetical RZU service with the
// given publication interval.
func RZUWhatIf(r *Results, interval time.Duration) RZUWhatIfResult {
	res := RZUWhatIfResult{Interval: interval}
	ct := make(map[string]bool)
	for _, c := range r.candidates() {
		ct[c.Domain] = true
	}
	r.World.Domains.Range(func(d *worldsim.Domain) {
		if !d.FastDelete || d.TLD == r.World.Cfg.CCTLD.TLD {
			return
		}
		reg := r.World.Registries[d.TLD]
		gt, ok := reg.Lookup(d.Name)
		if !ok {
			return
		}
		res.FastDeleted++
		detected := ct[d.Name]
		if detected {
			res.CTDetected++
		}
		if gt.InZoneAt.IsZero() {
			return // never entered the zone: invisible to everyone
		}
		out := gt.OutOfZoneAt
		if out.IsZero() {
			out = r.WindowEnd
		}
		// Visible if the in-zone interval crosses a publication tick.
		// Ticks fire at WindowStart + k·interval.
		sinceStart := gt.InZoneAt.Sub(r.WindowStart)
		nextTick := r.WindowStart.Add(sinceStart - (sinceStart % interval) + interval)
		if nextTick.Before(out) || nextTick.Equal(out) {
			res.RZUVisible++
			if detected {
				res.BothVisible++
			} else {
				res.RZUOnlyExtra++
			}
		}
	})
	return res
}
