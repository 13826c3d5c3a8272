package worldsim

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"darkdns/internal/certstream"
	"darkdns/internal/ct"
)

// recordedEvents builds a world from cfg, runs its full timeline, and
// returns every certstream event the hub delivered, in delivery order.
// The slice is the world's certificate corpus — the builder and snapshot
// tests compare it across build settings. The recording subscriber is
// attached before any scheduled certificate fires, so the corpus is
// complete and — like everything derived from a world — a pure function
// of cfg.
func recordedEvents(cfg Config) []certstream.Event {
	w := New(cfg)
	var evs []certstream.Event
	cancel := w.Hub.Subscribe(func(ev certstream.Event) { evs = append(evs, ev) })
	w.Run()
	cancel()
	return evs
}

// collectEntries subscribes to each of w's CT logs and returns the slice
// the entries they log from then on are appended to, final certificates
// included. A log keeps no entry, so a reader collects them as they are
// appended: call it before the run whose entries it should see.
func collectEntries(w *World) *[]ct.Entry {
	entries := new([]ct.Entry)
	for _, l := range w.Logs {
		l.Subscribe(func(e ct.Entry) { *entries = append(*entries, e) })
	}
	return entries
}

// TestRecordSizes pins the compiled world's per-name records: a
// registration's layout, a lifecycle record and a buffered feed seeding.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"regLayout", unsafe.Sizeof(regLayout{}), 40},
		{"lifecycle", unsafe.Sizeof(lifecycle{}), 32},
		{"feedSeed", unsafe.Sizeof(feedSeed{}), 24},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.size, c.max)
		}
	}
}

// TestRunInstantsAreCreation: every entry of a layout's lifecycle run
// fires at its own name's creation instant, equal under == to the
// record's Domain.Created, for a compiled world, for the same world
// loaded from its snapshot and for a world whose Start is given in
// another zone, and still after the clock's sort has swapped the entries
// around.
func TestRunInstantsAreCreation(t *testing.T) {
	cfg := DefaultConfig(5, 0.002)
	cfg.Weeks = 3
	compiled := CompileLayoutSet(cfg)
	zoned := cfg
	zoned.Start = cfg.Start.In(time.FixedZone("UTC+1", 3600))
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, compiled); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	base := newShellBase()
	for _, c := range []struct {
		name string
		ls   *LayoutSet
	}{{"compiled", compiled}, {"loaded", loaded}, {"zoned", CompileLayoutSet(zoned)}} {
		w := commitShell(base)
		w.Domains = &DomainStore{m: make(map[string]*Domain)}
		entries := 0
		for li, l := range c.ls.Layouts {
			run := w.commitLayout(l)
			check := func(stage string) {
				for i := range run.Len() {
					var d *Domain
					if lc := &run[i]; lc.isGhost() {
						d = lc.ghost().d
					} else {
						d = lc.reg().d
					}
					if got := run.At(i); got != d.Created {
						t.Fatalf("%s layout %d %s: entry %d (%s) at %v, created %v", c.name, li, stage, i, d.Name, got, d.Created)
					}
				}
			}
			check("as committed")
			for i, j := 0, run.Len()-1; i < j; i, j = i+1, j-1 {
				run.Swap(i, j)
			}
			check("reversed")
			entries += run.Len()
		}
		if entries == 0 {
			t.Fatalf("%s: no run entries", c.name)
		}
	}
}
