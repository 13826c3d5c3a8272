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
// number in EXPERIMENTS.md reproducible.
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
// field a stage reads alone at 1 and at 8 (the lookahead window at 1, 4
// and 16; the clock pool, which only a window uses, at 8 behind a window
// of 4), and every field at once, all against one serial reference
// rendered once. The tests below are that table's rows grouped by field,
// so a failure names the stage; together they cost 14 campaigns.

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
// reference's bytes; check, when non-nil, also sees each run's results.
func checkWidths(t *testing.T, check func(*testing.T, workpool.Engines, *Results), rows ...workpool.Engines) {
	t.Helper()
	if testing.Short() {
		t.Skip("full campaigns")
	}
	for _, row := range rows {
		cfg := widthBase
		cfg.Engines = row
		got, res := renderCampaign(t, cfg)
		if !bytes.Equal(widthSerial(), got) {
			t.Errorf("%+v: report diverges from serial", row)
		}
		if check != nil {
			check(t, row, res)
		}
	}
}

// Clock drain pool: a lookahead window's disjoint conflict groups fire on
// eight workers.
func TestSerialBatchedClockCampaignsIdentical(t *testing.T) {
	checkWidths(t, nil, workpool.Engines{ClockWorkers: 8, LookaheadWindow: 4})
}

// Clock lookahead: window 1 exercises the tagged machinery inside one
// instant; from 4 up the drain must also actually speculate — events
// from at least two distinct timestamps fired in one round.
func TestSerialLookaheadCampaignsIdentical(t *testing.T) {
	speculates := func(t *testing.T, e workpool.Engines, r *Results) {
		st := r.World.Clock.Stats()
		if e.LookaheadWindow >= 4 && (st.SpecFired == 0 || st.Windows == 0) {
			t.Errorf("LookaheadWindow=%d: SpecFired=%d Windows=%d, want both > 0 (no cross-timestamp firing happened)",
				e.LookaheadWindow, st.SpecFired, st.Windows)
		}
	}
	checkWidths(t, speculates,
		workpool.Engines{LookaheadWindow: 1}, workpool.Engines{LookaheadWindow: 4}, workpool.Engines{LookaheadWindow: 16})
}

// World compile: each plan draws from its own seed-derived RNG stream
// and commit installs layouts in canonical plan order.
func TestSerialParallelBuildCampaignsIdentical(t *testing.T) {
	checkWidths(t, nil, workpool.Engines{BuildWorkers: 1}, workpool.Engines{BuildWorkers: 8})
}

// World commit: record installs stripe across the sharded store, the
// ghost ledger and clock timelines install serially in canonical order.
func TestSerialParallelCommitCampaignsIdentical(t *testing.T) {
	checkWidths(t, nil, workpool.Engines{CommitWorkers: 1}, workpool.Engines{CommitWorkers: 8})
}

// Fleet stage 1: one batch per round, eight contiguous slices; results
// are positional.
func TestSerialParallelProbeCampaignsIdentical(t *testing.T) {
	checkWidths(t, nil, workpool.Engines{ProbeWorkers: 1}, workpool.Engines{ProbeWorkers: 8})
}

// Fleet stage 2, and the table's last row: every field at once, building
// its world through a snapshot path (a miss: compile, then save back).
func TestSerialParallelApplyCampaignsIdentical(t *testing.T) {
	checkWidths(t, nil, workpool.Engines{ApplyWorkers: 1}, workpool.Engines{ApplyWorkers: 8})

	cfg := widthBase
	cfg.Engines = workpool.AllEngines(8)
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "world.dsnap")
	if got, _ := renderCampaign(t, cfg); !bytes.Equal(widthSerial(), got) {
		t.Errorf("%+v over a snapshot path: report diverges from serial", cfg.Engines)
	}
}
