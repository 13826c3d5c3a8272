package analysis

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"darkdns/internal/workpool"
)

// renderCampaign runs cfg and renders its evaluation report.
func renderCampaign(t *testing.T, cfg RunConfig) ([]byte, *Results) {
	t.Helper()
	r := Run(cfg)
	var buf bytes.Buffer
	if err := WriteReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), r
}

// TestCampaignDeterminism: identical run configurations must produce
// byte-identical evaluation reports — the property that makes every
// number cmd/reproduce prints reproducible from its flags.
func TestCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("three full campaigns")
	}
	cfg := RunConfig{Seed: 31, Scale: 0.0008, Weeks: 2, WatchSampleRate: 1.0, ProbeMail: true}
	a, _ := renderCampaign(t, cfg)
	b, _ := renderCampaign(t, cfg)
	if !bytes.Equal(a, b) {
		t.Fatal("identical seeds produced different reports")
	}
	// A different seed must actually change the world.
	cfg.Seed = 32
	c, _ := renderCampaign(t, cfg)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical reports")
	}
}

// The width table. Width is a setting of one code path per stage, so the
// contract is one sentence — a fixed-seed campaign renders byte-identical
// evaluation reports (Tables 1–5, Figures 1–2, every headline) at any
// value of any workpool.Engines field — and one table proves it: each
// field a stage reads alone at 1 and at 8, and every field at once, all
// against one serial reference rendered once. The tests below are that
// table's rows grouped by field, so a failure names the stage; together
// they cost 4 campaigns.

var widthBase = RunConfig{Seed: 61, Scale: 0.0008, Weeks: 2, WatchSampleRate: 1.0, ProbeMail: true}

// widthSerial is widthBase's report at the zero Engines value.
var widthSerial = sync.OnceValue(func() []byte {
	var buf bytes.Buffer
	if err := WriteReport(&buf, Run(widthBase)); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// checkWidths runs widthBase under each row and requires the serial
// reference's bytes.
func checkWidths(t *testing.T, rows ...workpool.Engines) {
	t.Helper()
	if testing.Short() {
		t.Skip("full campaigns")
	}
	for _, row := range rows {
		cfg := widthBase
		cfg.Engines = row
		if got, _ := renderCampaign(t, cfg); !bytes.Equal(widthSerial(), got) {
			t.Errorf("%+v: report diverges from serial", row)
		}
	}
}

// World compile: each plan draws from its own seed-derived RNG stream
// and commit installs layouts in canonical plan order.
func TestSerialParallelBuildCampaignsIdentical(t *testing.T) {
	checkWidths(t, workpool.Engines{BuildWorkers: 1}, workpool.Engines{BuildWorkers: 8})
}

// The table's last row: every field at once, building its world through
// a snapshot path (a miss: compile, then save back).
func TestSerialParallelApplyCampaignsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns")
	}
	cfg := widthBase
	cfg.Engines = workpool.AllEngines(8)
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "world.dsnap")
	if got, _ := renderCampaign(t, cfg); !bytes.Equal(widthSerial(), got) {
		t.Errorf("%+v over a snapshot path: report diverges from serial", cfg.Engines)
	}
}
