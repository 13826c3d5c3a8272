package analysis

import (
	"time"

	"darkdns/internal/worldsim"
)

// RZUWhatIfResult quantifies the paper's §5 proposal: if registries published
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

// rzuWhatIf computes visibility under a hypothetical RZU service at each
// publication interval, in one pass over the world.
func rzuWhatIf(r *Results, intervals ...time.Duration) []RZUWhatIfResult {
	res := make([]RZUWhatIfResult, len(intervals))
	for i, iv := range intervals {
		res[i].Interval = iv
	}
	r.World.Domains.Range(func(d *worldsim.Domain) {
		if !d.FastDelete || d.TLD == r.World.Cfg.CCTLD.TLD {
			return
		}
		gt, ok := r.World.Registries[d.TLD].Lookup(d.Name)
		if !ok {
			return
		}
		detected := r.candidate(d.Name) != nil
		out := gt.OutOfZoneAt
		if out.IsZero() {
			out = r.WindowEnd
		}
		sinceStart := gt.InZoneAt.Sub(r.WindowStart)
		for i := range res {
			v := &res[i]
			v.FastDeleted++
			if detected {
				v.CTDetected++
			}
			if gt.InZoneAt.IsZero() {
				continue // never entered the zone: invisible to everyone
			}
			// Visible if the in-zone interval crosses a publication tick.
			// Ticks fire at WindowStart + k·interval.
			nextTick := r.WindowStart.Add(sinceStart - (sinceStart % v.Interval) + v.Interval)
			if !nextTick.After(out) {
				v.RZUVisible++
				if detected {
					v.BothVisible++
				} else {
					v.RZUOnlyExtra++
				}
			}
		}
	})
	return res
}
