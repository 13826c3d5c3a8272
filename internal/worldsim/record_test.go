package worldsim

import (
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
