package rdap

import (
	"errors"
	"testing"
	"time"
)

var t0 = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

func testBackend() *Mux {
	m := NewMux()
	m.Handle("com", BackendFunc(func(name string) (*Record, error) {
		switch name {
		case "example.com":
			return &Record{Domain: name, Registrar: "GoDaddy", Registered: t0, Status: []string{"active"}}, nil
		case "fresh.com":
			return nil, ErrNotSynced
		}
		return nil, ErrNotFound
	}))
	return m
}

func TestMuxRouting(t *testing.T) {
	m := testBackend()
	rec, err := m.RDAPDomain("Example.COM")
	if err != nil || rec.Registrar != "GoDaddy" {
		t.Fatalf("lookup: %+v, %v", rec, err)
	}
	if _, err := m.RDAPDomain("missing.com"); !errors.Is(err, ErrNotFound) {
		t.Errorf("want ErrNotFound, got %v", err)
	}
	if _, err := m.RDAPDomain("x.nl"); !errors.Is(err, ErrUnavailable) {
		t.Errorf("unrouted TLD: want ErrUnavailable, got %v", err)
	}
}
