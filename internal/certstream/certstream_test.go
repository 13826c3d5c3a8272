package certstream

import (
	"testing"
	"time"

	"darkdns/internal/ct"
)

var t0 = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

func TestHubForwardsPrecertsOnly(t *testing.T) {
	hub := NewHub()
	log := ct.NewLog("argon")
	hub.Attach(log, func() time.Time { return t0 })
	var got []Event
	hub.Subscribe(func(ev Event) { got = append(got, ev) })

	log.Append(t0, ct.PreCertificate, "CA", "a.com", nil, t0)
	log.Append(t0, ct.FinalCertificate, "CA", "b.com", nil, t0)
	log.Append(t0, ct.PreCertificate, "CA", "c.com", nil, t0)

	if len(got) != 2 || got[0].Entry.CN != "a.com" || got[1].Entry.CN != "c.com" {
		t.Fatalf("events: %+v", got)
	}
	if got[0].Log != "argon" {
		t.Errorf("log name: %q", got[0].Log)
	}
}

func TestHubUnsubscribe(t *testing.T) {
	hub := NewHub()
	log := ct.NewLog("x")
	hub.Attach(log, func() time.Time { return t0 })
	n := 0
	cancel := hub.Subscribe(func(Event) { n++ })
	log.Append(t0, ct.PreCertificate, "CA", "a.com", nil, t0)
	cancel()
	log.Append(t0, ct.PreCertificate, "CA", "b.com", nil, t0)
	if n != 1 {
		t.Errorf("n = %d, want 1", n)
	}
}

func TestHubSeenTimestampUsesClock(t *testing.T) {
	hub := NewHub()
	log := ct.NewLog("x")
	now := t0
	hub.Attach(log, func() time.Time { return now })
	var seen time.Time
	hub.Subscribe(func(ev Event) { seen = ev.Seen })
	now = t0.Add(42 * time.Minute)
	log.Append(now, ct.PreCertificate, "CA", "a.com", nil, now)
	if !seen.Equal(t0.Add(42 * time.Minute)) {
		t.Errorf("Seen = %v", seen)
	}
}
