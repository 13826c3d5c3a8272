package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"darkdns/internal/measure"
)

// pollingBackend is the world's probe backend with the notifier hidden:
// it forwards Resolve, but its handles only Probe, so the fleet reads
// every watch every round, as it does over a backend that cannot notify.
type pollingBackend struct {
	measure.Backend
	measure.MailBackend
	resolve func(string) measure.Handle
}

func (b pollingBackend) Resolve(domain string) measure.Handle {
	return struct{ measure.Handle }{b.resolve(domain)}
}

func hidingNotify(inner measure.Backend) measure.Backend {
	return pollingBackend{
		Backend:     inner,
		MailBackend: inner.(measure.MailBackend),
		resolve:     inner.(interface{ Resolve(string) measure.Handle }).Resolve,
	}
}

// TestFoldedCampaignEqualsPolled is the cross-path check of the fleet's
// fold: the ledger's campaign, with rounds reading only the watches whose
// answer moved, renders the committed report hash at each seed, and so
// does the same campaign with the world's notification hidden, reading
// every watch every round; both report the same Probes, Rounds,
// MaxRound, Died and NSChanged. The poll reads every probe, and at seed 5
// the fold reads at most 3 % of them.
func TestFoldedCampaignEqualsPolled(t *testing.T) {
	golden := map[int64]string{
		5: "71b52bab5ef52f22",
		7: "1a9539e25bb23872",
	}
	for seed, want := range golden {
		cfg := RunConfig{Seed: seed, Scale: 0.002, Weeks: 3, WatchSampleRate: 1, ProbeMail: true}
		var reports [2]measure.FleetReport
		for i, wrap := range []func(measure.Backend) measure.Backend{nil, hidingNotify} {
			res := run(cfg, wrap)
			h := sha256.New()
			if err := WriteReport(h, res); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)[:8]); got != want {
				t.Errorf("seed %d (%s): report hash %s, committed %s", seed, []string{"fold", "poll"}[i], got, want)
			}
			reports[i] = res.Fleet.Report()
		}
		fold, poll := reports[0], reports[1]
		if fold.Probes != poll.Probes || fold.Rounds != poll.Rounds || fold.MaxRound != poll.MaxRound ||
			fold.Died != poll.Died || fold.NSChanged != poll.NSChanged {
			t.Errorf("seed %d: fold %+v, poll %+v", seed, fold, poll)
		}
		if poll.Reads != poll.Probes {
			t.Errorf("seed %d: the poll read %d of %d probes", seed, poll.Reads, poll.Probes)
		}
		if seed == 5 && float64(fold.Reads) > 0.03*float64(fold.Probes) {
			t.Errorf("seed 5: the fold read %d of %d probes, more than 3 %%", fold.Reads, fold.Probes)
		}
		t.Logf("seed %d: %d probes, %d read by the fold", seed, fold.Probes, fold.Reads)
	}
}
