package worldsim

import (
	"darkdns/internal/certstream"
)

// RecordedEvents builds a world from cfg, runs its full timeline, and
// returns every certstream event the hub delivered, in delivery order.
// The slice is the world's certificate corpus — the builder and snapshot
// tests compare it across build settings — and a realistic replay input
// for Pipeline.HandleEvent. The recording subscriber is attached before
// any scheduled certificate fires, so the corpus is complete and — like
// everything derived from a world — a pure function of cfg.
func RecordedEvents(cfg Config) []certstream.Event {
	w := New(cfg)
	var evs []certstream.Event
	cancel := w.Hub.Subscribe(func(ev certstream.Event) { evs = append(evs, ev) })
	w.Run()
	cancel()
	return evs
}
