package rdap

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
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

func TestServerClientEndToEnd(t *testing.T) {
	srv := NewServer(testBackend(), nil)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient("http://"+addr.String(), "")

	rec, err := c.Domain(context.Background(), "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Domain != "example.com" || rec.Registrar != "GoDaddy" || !rec.Registered.Equal(t0) {
		t.Errorf("record: %+v", rec)
	}
	if len(rec.Status) != 1 || rec.Status[0] != "active" {
		t.Errorf("status: %v", rec.Status)
	}

	if _, err := c.Domain(context.Background(), "missing.com"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing: %v", err)
	}
	if _, err := c.Domain(context.Background(), "fresh.com"); !errors.Is(err, ErrNotFound) {
		t.Errorf("not-synced should surface as not found: %v", err)
	}
}

func TestServerRejectsMalformedNames(t *testing.T) {
	srv := NewServer(testBackend(), nil)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient("http://"+addr.String(), "")
	if _, err := c.Domain(context.Background(), "bad..name"); !errors.Is(err, ErrUnavailable) {
		t.Errorf("malformed name: %v", err)
	}
}

func TestRateLimiting(t *testing.T) {
	now := t0
	rl := NewRateLimiter(1, 2, func() time.Time { return now })
	if !rl.Allow("w1") || !rl.Allow("w1") {
		t.Fatal("burst of 2 should be allowed")
	}
	if rl.Allow("w1") {
		t.Fatal("third immediate request should be limited")
	}
	if !rl.Allow("w2") {
		t.Fatal("independent key should have its own bucket")
	}
	now = now.Add(time.Second)
	if !rl.Allow("w1") {
		t.Fatal("token should refill after 1 s at 1 rps")
	}
	now = now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if !rl.Allow("w1") {
			t.Fatal("bucket should cap at burst")
		}
	}
	if rl.Allow("w1") {
		t.Fatal("bucket exceeded burst cap")
	}
}

func TestServerRateLimitsPerWorker(t *testing.T) {
	rl := NewRateLimiter(0.0001, 1, time.Now) // effectively one request ever
	srv := NewServer(testBackend(), rl)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	w1 := NewClient("http://"+addr.String(), "worker-1")
	w2 := NewClient("http://"+addr.String(), "worker-2")
	if _, err := w1.Domain(context.Background(), "example.com"); err != nil {
		t.Fatalf("first request: %v", err)
	}
	if _, err := w1.Domain(context.Background(), "example.com"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second request should be limited: %v", err)
	}
	// Cycling to a different worker identity evades the per-IP limit —
	// exactly the paper's Azure-function tactic.
	if _, err := w2.Domain(context.Background(), "example.com"); err != nil {
		t.Fatalf("other worker should pass: %v", err)
	}
}

func TestClientUnreachableServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", "")
	if _, err := c.Domain(context.Background(), "example.com"); !errors.Is(err, ErrUnavailable) {
		t.Errorf("want ErrUnavailable, got %v", err)
	}
}

func TestVcardFNRobustness(t *testing.T) {
	if vcardFN(nil) != "" || vcardFN([]any{"vcard"}) != "" {
		t.Error("short arrays")
	}
	if vcardFN([]any{"vcard", "notalist"}) != "" {
		t.Error("bad inner type")
	}
	good := []any{"vcard", []any{[]any{"fn", map[string]any{}, "text", "Registrar X"}}}
	if vcardFN(good) != "Registrar X" {
		t.Error("good vcard failed")
	}
}

// TestResponseBodyCapped: a domain object is read only while it is
// shorter than maxResponseBytes. One byte under the cap parses; a body
// that reaches it is an error, and so is a server streaming past it, which
// the client stops reading at the cap.
func TestResponseBodyCapped(t *testing.T) {
	obj, err := json.Marshal(domainResponse(&Record{Domain: "example.com", Registrar: "GoDaddy", Registered: t0}))
	if err != nil {
		t.Fatal(err)
	}
	padded := func(total int) []byte { // leading whitespace, so the decoder reads every byte
		return append(bytes.Repeat([]byte(" "), total-len(obj)), obj...)
	}
	if rec, err := parseDomainResponse(bytes.NewReader(padded(maxResponseBytes - 1))); err != nil || rec.Registrar != "GoDaddy" {
		t.Fatalf("body one byte under the cap: %+v, %v", rec, err)
	}
	if rec, err := parseDomainResponse(bytes.NewReader(padded(maxResponseBytes))); err == nil {
		t.Fatalf("body at the cap parsed: %+v", rec)
	}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write(padded(4 * maxResponseBytes))
	}))
	defer srv.Close()
	if rec, err := NewClient(srv.URL, "").Domain(context.Background(), "example.com"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("oversized response: %+v, %v", rec, err)
	}
}

// FuzzParseDomainResponse: the client's decoder never panics, returns
// exactly one of a record and an error, and a record it returns survives
// the server's rendering — domainResponse(rec) parses back to the same
// Domain, Registrar, Registered and Status.
func FuzzParseDomainResponse(f *testing.F) {
	seed, err := json.Marshal(domainResponse(&Record{Domain: "example.com", Registrar: "GoDaddy", Registered: t0, Status: []string{"active"}}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"ldhName":"A.Example.COM.","status":[],"events":[{"eventAction":"registration","eventDate":"2023-11-01T05:00:00.5+05:00"}]}`))
	f.Add([]byte(`{"entities":[{"roles":["registrar"],"vcardArray":["vcard",[["fn",{},"text","R\u00e9g"]]]}]}`))
	f.Add([]byte(`{"events":[{"eventAction":"registration","eventDate":"9999-12-31T23:00:00-05:00"}]}`))
	f.Add([]byte(`{"ldhName":"a..","vcardArray":7}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := parseDomainResponse(bytes.NewReader(data))
		if (rec == nil) == (err == nil) {
			t.Fatalf("record %+v with error %v", rec, err)
		}
		if err != nil {
			return
		}
		body, err := json.Marshal(domainResponse(rec))
		if err != nil {
			t.Fatal(err)
		}
		back, err := parseDomainResponse(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("rendered %s does not parse back: %v", body, err)
		}
		if back.Domain != rec.Domain || back.Registrar != rec.Registrar ||
			!back.Registered.Equal(rec.Registered) || !slices.Equal(back.Status, rec.Status) {
			t.Fatalf("round trip %+v -> %+v", rec, back)
		}
	})
}
