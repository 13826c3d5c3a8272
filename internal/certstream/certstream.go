// Package certstream implements a Certstream-style firehose of newly
// logged precertificates: an in-process fan-out hub fed by CT log
// subscriptions. DarkDNS step 1 consumes this feed.
package certstream

import (
	"sync"
	"sync/atomic"
	"time"

	"darkdns/internal/ct"
)

// Event is one feed message: the CT entry plus the feed-observed
// timestamp (the paper uses the Certstream-reported timestamp because CT
// logs expose no insertion time).
type Event struct {
	Seen  time.Time
	Log   string
	Entry ct.Entry
}

// hubSub is one registered subscriber.
type hubSub struct {
	id int64
	fn func(Event)
}

// Hub fans CT log precertificate entries out to subscribers. Final
// certificates are dropped, matching the paper's methodology
// (footnote 1).
//
// The subscriber list is copy-on-write: Subscribe and unsubscribe (rare)
// rebuild it under mu, while publish (the per-certificate hot path) loads
// it atomically — no lock is held during subscriber callbacks and fan-out
// allocates nothing, so one slow subscriber never serializes the others'
// registration and parallel feeders never contend.
type Hub struct {
	mu     sync.Mutex
	subs   atomic.Pointer[[]hubSub]
	nextID int64
}

// NewHub creates a hub that forwards precertificate entries only.
func NewHub() *Hub {
	return &Hub{}
}

// Attach subscribes the hub to a CT log. now supplies feed-observation
// timestamps (pass the simulation clock's Now).
func (h *Hub) Attach(log *ct.Log, now func() time.Time) {
	log.Subscribe(func(e ct.Entry) {
		if e.Kind != ct.PreCertificate {
			return
		}
		h.publish(Event{Seen: now(), Log: log.Name(), Entry: e})
	})
}

// publish delivers ev to all subscribers synchronously, without holding
// the hub lock during callbacks.
func (h *Hub) publish(ev Event) {
	if subs := h.subs.Load(); subs != nil {
		for _, s := range *subs {
			s.fn(ev)
		}
	}
}

// Subscribe registers fn and returns an unsubscribe handle.
func (h *Hub) Subscribe(fn func(Event)) (cancel func()) {
	h.mu.Lock()
	id := h.nextID
	h.nextID++
	var cur []hubSub
	if p := h.subs.Load(); p != nil {
		cur = *p
	}
	next := make([]hubSub, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = hubSub{id: id, fn: fn}
	h.subs.Store(&next)
	h.mu.Unlock()
	return func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		p := h.subs.Load()
		if p == nil {
			return
		}
		next := make([]hubSub, 0, len(*p))
		for _, s := range *p {
			if s.id != id {
				next = append(next, s)
			}
		}
		h.subs.Store(&next)
	}
}
