// RZU-whatif: the paper's closing argument, quantified. Section 5
// advocates resurrecting Verisign's Rapid Zone Update service — zone
// change feeds every 5 minutes instead of daily snapshots. This example
// asks the visibility question through the multi-world sweep engine:
// one compiled world, snapshotted once, measured under a grid of probe
// cadences — what does a vetted RZU subscriber see of the fast-deleted
// domain population, versus the best public method (CT logs) and the
// CZDS status quo?
package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"darkdns/internal/analysis"
	"darkdns/internal/registry"
	"darkdns/internal/rzu"
	"darkdns/internal/simclock"
)

func main() {
	// Part 1: a policy grid over one world. The sweep engine compiles the
	// (seed 12, scale 0.003) world exactly once, snapshots it, and runs
	// each probe-cadence policy as its own campaign from the snapshot.
	out, err := analysis.Sweep(analysis.SweepConfig{
		Seeds: []int64{12}, Scales: []float64{0.003}, Weeks: 4,
		Policies: []analysis.SweepPolicy{
			{Name: "paper-10m", ProbeCadence: 10 * time.Minute},
			{Name: "rapid-2m", ProbeCadence: 2 * time.Minute},
			{Name: "lazy-1h", ProbeCadence: time.Hour},
		},
		Base:    analysis.RunConfig{WatchSampleRate: 0.5},
		Workers: 3,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("probe-cadence grid over one world (%d compile, %d cells):\n",
		out.DistinctWorlds, len(out.Cells))
	for _, sr := range out.Cells {
		fmt.Printf("  %-10s %4d transients confirmed, median detection %v (campaign %v)\n",
			sr.Cell.Policy.Label(), sr.Transients,
			sr.MedianDelay.Round(time.Second), sr.Elapsed.Round(time.Millisecond))
	}

	// The zone-update what-if reads any cell's campaign; the world — and
	// therefore the fast-deleted population — is identical across cells.
	res := out.Cells[0].Results
	fmt.Println("\nvisibility of fast-deleted domains by zone-update cadence:")
	for _, interval := range []time.Duration{5 * time.Minute, 30 * time.Minute, time.Hour, 6 * time.Hour, 24 * time.Hour} {
		r := analysis.RZUWhatIf(res, interval)
		fmt.Printf("  every %-6s %4d of %4d visible (%s)\n",
			interval, r.RZUVisible, r.FastDeleted, analysis.Pct(r.RZUVisible, r.FastDeleted))
	}
	base := analysis.RZUWhatIf(res, 5*time.Minute)
	fmt.Printf("\nfor comparison, the CT-based public method caught %d (%s)\n",
		base.CTDetected, analysis.Pct(base.CTDetected, base.FastDeleted))

	// Part 2: the service itself, live. A vetted researcher subscribes;
	// an unvetted party is refused; a transient domain's full lifecycle
	// arrives as rapid update batches.
	fmt.Println("\n--- live RZU service demo ---")
	clk := simclock.NewSim(time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC))
	reg := registry.New(registry.DefaultConfig("com"), clk, rand.New(rand.NewSource(1)))
	defer reg.Stop()
	svc := rzu.New(rzu.Config{Interval: 5 * time.Minute, Policy: rzu.AllowList{"vetted-researcher": true}})
	defer svc.Stop()
	svc.Publish(reg, clk)

	if err := svc.Subscribe("spam-operation", "com", func(rzu.Batch) {}); err != nil {
		fmt.Println("unvetted subscriber:", err)
	}
	svc.Subscribe("vetted-researcher", "com", func(b rzu.Batch) {
		for _, c := range b.Changes {
			fmt.Printf("  %s  %s %s\n", b.Produced.Format("15:04"), c.Kind, c.Domain)
		}
	})

	reg.Register("phish-kit.com", "GoDaddy", []string{"ns1.cloudflare.com"}, netip.Addr{})
	clk.Advance(10 * time.Minute)
	reg.Delete("phish-kit.com") // registrar catches the fraud signal
	clk.Advance(10 * time.Minute)
	fmt.Println("the subscriber saw both the birth and the death — CZDS would have seen neither.")
}
