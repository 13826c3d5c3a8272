package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"darkdns/internal/workpool"
)

// TestGoldenReportHash is the determinism gate: the performance ledger's
// campaign (bench/campaign.go's campaignConfig) must render, at each
// committed seed, a report whose digest — the first 8 bytes of SHA-256 of
// WriteReport, the same digest bench/ prints as report_hash — equals the
// committed value, on the default path and with every engine on. A change
// that moves a hash changed what the campaign computes, not how fast.
func TestGoldenReportHash(t *testing.T) {
	golden := map[int64]string{
		5: "71b52bab5ef52f22",
		7: "1a9539e25bb23872",
	}
	for seed, want := range golden {
		cfg := RunConfig{Seed: seed, Scale: 0.002, Weeks: 3, WatchSampleRate: 1, ProbeMail: true}
		engines := cfg
		engines.Engines = workpool.AllEngines(8)
		for name, cfg := range map[string]RunConfig{"serial": cfg, "engines": engines} {
			if name == "engines" && testing.Short() {
				continue
			}
			h := sha256.New()
			if err := WriteReport(h, Run(cfg)); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)[:8]); got != want {
				t.Errorf("seed %d (%s): report hash %s, committed %s", seed, name, got, want)
			}
		}
	}
}
