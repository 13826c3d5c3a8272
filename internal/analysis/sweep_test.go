package analysis

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"testing"
	"time"

	"darkdns/internal/columnar"
	"darkdns/internal/workpool"
	"darkdns/internal/worldsim"
)

// TestSnapshotCampaignsIdentical: the acceptance bar for the snapshot
// engine — a fixed-seed campaign must render a byte-identical evaluation
// report whether the world was compiled fresh or decoded from a
// persistent snapshot, alone and with every engine on.
func TestSnapshotCampaignsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("three full campaigns")
	}
	base := RunConfig{Seed: 71, Scale: 0.0008, Weeks: 2, WatchSampleRate: 1.0, ProbeMail: true}
	render := func(cfg RunConfig) []byte {
		got, _ := renderCampaign(t, cfg)
		return got
	}
	serial := render(base)

	path := filepath.Join(t.TempDir(), "world.dsnap")
	if err := worldsim.SaveSnapshotFile(path, worldsim.CompileLayoutSet(
		func() worldsim.Config {
			wcfg := worldsim.DefaultConfig(base.Seed, base.Scale)
			wcfg.Weeks = base.Weeks
			return wcfg
		}())); err != nil {
		t.Fatal(err)
	}

	snap := base
	snap.SnapshotPath = path
	loadsBefore := worldsim.SnapshotLoadCount()
	if got := render(snap); !bytes.Equal(serial, got) {
		t.Error("snapshot-built campaign report diverges from compiled")
	}

	stacked := snap
	stacked.Engines = workpool.AllEngines(8)
	if got := render(stacked); !bytes.Equal(serial, got) {
		t.Error("snapshot + all-engines campaign report diverges from serial compiled")
	}
	if worldsim.SnapshotLoadCount() != loadsBefore+2 {
		t.Error("snapshot campaigns did not both load from the snapshot")
	}
}

// TestSweepCompilesEachWorldOnce: a 2-seed × 1-scale × 3-policy grid (6
// cells) must compile exactly 2 worlds, every cell must complete, and
// the emitted columnar table must round-trip through columnar.Reader
// with the cell parameters intact.
func TestSweepCompilesEachWorldOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("six small campaigns")
	}
	grid := SweepConfig{
		Seeds:  []int64{1, 2},
		Scales: []float64{0.0006},
		Weeks:  2,
		Policies: []SweepPolicy{
			{Name: "paper", ProbeCadence: 10 * time.Minute},
			{Name: "fast", ProbeCadence: 2 * time.Minute},
			{Name: "shed", WatchSampleRate: 0.5},
		},
		Base:        RunConfig{WatchSampleRate: 1.0, ProbeMail: true},
		SnapshotDir: t.TempDir(),
		Workers:     3,
	}
	compilesBefore := worldsim.CompileCount()
	loadsBefore := worldsim.SnapshotLoadCount()
	out, err := Sweep(grid)
	if err != nil {
		t.Fatal(err)
	}
	nCells := len(grid.Seeds) * len(grid.Scales) * len(grid.Policies)
	if len(out.Cells) != nCells {
		t.Fatalf("cells: got %d, want %d", len(out.Cells), nCells)
	}
	wantWorlds := int64(len(grid.Seeds) * len(grid.Scales))
	if got := worldsim.CompileCount() - compilesBefore; got != wantWorlds {
		t.Errorf("compile fan-outs: got %d, want %d (each distinct world exactly once)", got, wantWorlds)
	}
	if out.DistinctWorlds != int(wantWorlds) {
		t.Errorf("DistinctWorlds = %d, want %d", out.DistinctWorlds, wantWorlds)
	}
	if got := worldsim.SnapshotLoadCount() - loadsBefore; got != int64(nCells) {
		t.Errorf("snapshot loads: got %d, want %d (every cell from snapshot)", got, nCells)
	}
	for i, sr := range out.Cells {
		if sr == nil || sr.Results == nil {
			t.Fatalf("cell %d incomplete", i)
		}
		if sr.Domains == 0 {
			t.Errorf("cell %d: empty world", i)
		}
	}

	// Cells sharing a (seed, policy-invariant) world must agree on ground
	// truth: same domain count for same seed across policies.
	bySeed := map[int64]int{}
	for _, sr := range out.Cells {
		if prev, ok := bySeed[sr.Cell.Seed]; ok && prev != sr.Domains {
			t.Errorf("seed %d: domain counts differ across policies (%d vs %d)", sr.Cell.Seed, prev, sr.Domains)
		}
		bySeed[sr.Cell.Seed] = sr.Domains
	}

	// Columnar output round-trips.
	var buf bytes.Buffer
	if err := WriteSweep(&buf, out); err != nil {
		t.Fatal(err)
	}
	r, err := columnar.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	policies := map[string]bool{}
	for {
		g, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.Rows; i++ {
			policies[g.Strs["policy"][i]] = true
			if g.Floats["scale"][i] != 0.0006 {
				t.Errorf("row %d: scale = %v", rows+i, g.Floats["scale"][i])
			}
		}
		rows += g.Rows
	}
	if rows != nCells {
		t.Errorf("result table: %d rows, want %d", rows, nCells)
	}
	for _, want := range []string{"paper", "fast", "shed"} {
		if !policies[want] {
			t.Errorf("result table missing policy %q", want)
		}
	}
}

// TestSweepReusesExistingSnapshots: a second sweep over the same
// directory must compile nothing.
func TestSweepReusesExistingSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("two small campaigns")
	}
	grid := SweepConfig{
		Seeds:       []int64{5},
		Scales:      []float64{0.0005},
		Weeks:       2,
		Base:        RunConfig{WatchSampleRate: 1.0},
		SnapshotDir: t.TempDir(),
	}
	if _, err := Sweep(grid); err != nil {
		t.Fatal(err)
	}
	compilesBefore := worldsim.CompileCount()
	out, err := Sweep(grid)
	if err != nil {
		t.Fatal(err)
	}
	if got := worldsim.CompileCount() - compilesBefore; got != 0 {
		t.Errorf("re-sweep compiled %d worlds, want 0", got)
	}
	if out.DistinctWorlds != 0 {
		t.Errorf("re-sweep DistinctWorlds = %d, want 0", out.DistinctWorlds)
	}
}
