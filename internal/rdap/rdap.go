// Package rdap implements a Registration Data Access Protocol subset
// (RFC 7480/9083): an HTTP server exposing /domain/{name} lookups backed
// by registry data, a client that never retries failures (matching the
// paper's collection policy), and per-source-address token-bucket rate
// limiting (the cause of the ≈3 % collection failures in §4.2). The
// pipeline (internal/core) makes one lookup per candidate from one clock
// timer (DESIGN.md §6).
//
// Concurrency model: the Mux routing table is an immutable map behind
// atomic.Pointer, swapped copy-on-write; the RateLimiter's bucket table is
// striped over independent locks keyed by client hash. Nothing on the
// lookup path takes a global lock.
package rdap

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"darkdns/internal/dnsname"
)

// Record is the registration data DarkDNS extracts from an RDAP response.
type Record struct {
	Domain     string    `json:"ldhName"`
	Registrar  string    `json:"registrar"`
	Registered time.Time `json:"registered"`
	Status     []string  `json:"status,omitempty"`
}

// Canonical RDAP failure modes observed by the pipeline.
var (
	ErrNotFound    = errors.New("rdap: domain not found")
	ErrRateLimited = errors.New("rdap: rate limited")
	ErrNotSynced   = errors.New("rdap: registration not yet available")
	ErrUnavailable = errors.New("rdap: service unavailable")
)

// Querier is the pipeline's view of RDAP: one lookup, no retries.
type Querier interface {
	Domain(ctx context.Context, name string) (*Record, error)
}

// QuerierAt is the optional Querier extension for time-explicit lookups:
// the query evaluated as of an explicit instant rather than the
// backend's own clock. In-process simulated backends implement it so
// effect-tagged due-timer events — which may fire ahead of the lookahead
// drain's committed time — observe their own instant; wire backends
// (Client) cannot, and the pipeline falls back to untagged scheduling.
type QuerierAt interface {
	DomainAt(ctx context.Context, name string, now time.Time) (*Record, error)
}

// Dispatcher is empty and has no constructor: step 2 is one clock timer
// per candidate, and core.Pipeline.Dispatcher always returns nil. The type
// remains only because bench/campaign.go names it; it goes with that
// call in the benchmark PR of ROADMAP item 1(d).
type Dispatcher struct{}

// Backend supplies registration data for one TLD's RDAP service.
type Backend interface {
	// RDAPDomain returns the record, ErrNotFound, or ErrNotSynced.
	RDAPDomain(name string) (*Record, error)
}

// BackendAt is the optional Backend extension mirroring QuerierAt.
type BackendAt interface {
	RDAPDomainAt(name string, now time.Time) (*Record, error)
}

// BackendFunc adapts a function to Backend.
type BackendFunc func(name string) (*Record, error)

// RDAPDomain implements Backend.
func (f BackendFunc) RDAPDomain(name string) (*Record, error) { return f(name) }

// Mux routes domains to per-TLD backends, like the IANA bootstrap registry.
//
// Routing is on the lookup hot path — every candidate's lookup resolves
// its backend through the Mux — so the routing table is a copy-on-write
// map (cowMap): lookups take no lock; registrations (bootstrap-table
// updates, rare) pay the clone.
type Mux struct {
	backends cowMap[Backend]
}

// NewMux creates an empty router.
func NewMux() *Mux {
	return &Mux{}
}

// Handle registers the backend for tld. Safe for concurrent use with
// RDAPDomain; in-flight lookups keep routing through the previous table.
func (m *Mux) Handle(tld string, b Backend) {
	m.backends.set(dnsname.Canonical(tld), b)
}

// RDAPDomain implements Backend by routing on the domain's TLD. Lock-free.
func (m *Mux) RDAPDomain(name string) (*Record, error) {
	name = dnsname.Canonical(name)
	b, ok := m.backends.get(dnsname.TLD(name))
	if !ok {
		return nil, fmt.Errorf("%w: no RDAP service for %q", ErrUnavailable, dnsname.TLD(name))
	}
	return b.RDAPDomain(name)
}

// RDAPDomainAt implements BackendAt by routing like RDAPDomain. Backends
// without the time-explicit extension answer with their own clock —
// callers that need the guarantee (tagged due-timers) only schedule
// tagged when the backend supports it.
func (m *Mux) RDAPDomainAt(name string, now time.Time) (*Record, error) {
	name = dnsname.Canonical(name)
	b, ok := m.backends.get(dnsname.TLD(name))
	if !ok {
		return nil, fmt.Errorf("%w: no RDAP service for %q", ErrUnavailable, dnsname.TLD(name))
	}
	if ba, ok := b.(BackendAt); ok {
		return ba.RDAPDomainAt(name, now)
	}
	return b.RDAPDomain(name)
}

// limiterStripes is the number of independent locks the rate limiter's
// bucket table is striped over. Client keys hash to a stripe, so a fleet
// of workers cycling source addresses does not serialize on one lock.
// Power of two for cheap masking.
const limiterStripes = 64

// limiterStripe is one stripe of the bucket table.
type limiterStripe struct {
	mu      sync.Mutex
	buckets map[string]*bucket
}

// RateLimiter is a token bucket per client key, striped over
// limiterStripes locks keyed by client hash.
type RateLimiter struct {
	rate    float64 // tokens per second
	burst   float64
	now     func() time.Time
	stripes [limiterStripes]limiterStripe
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter allows rate requests/second with the given burst per key.
func NewRateLimiter(rate, burst float64, now func() time.Time) *RateLimiter {
	if now == nil {
		now = time.Now
	}
	rl := &RateLimiter{rate: rate, burst: burst, now: now}
	for i := range rl.stripes {
		rl.stripes[i].buckets = make(map[string]*bucket)
	}
	return rl
}

// Allow consumes one token for key, reporting whether the request may
// proceed. Distinct keys contend only within their hash stripe.
func (rl *RateLimiter) Allow(key string) bool {
	st := &rl.stripes[dnsname.Hash64(key)&(limiterStripes-1)]
	st.mu.Lock()
	defer st.mu.Unlock()
	now := rl.now()
	b := st.buckets[key]
	if b == nil {
		b = &bucket{tokens: rl.burst, last: now}
		st.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * rl.rate
	if b.tokens > rl.burst {
		b.tokens = rl.burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Server is an RDAP HTTP server.
type Server struct {
	backend Backend
	limiter *RateLimiter
	http    *http.Server
	ln      net.Listener
}

// NewServer wraps backend; limiter may be nil for unlimited service.
func NewServer(backend Backend, limiter *RateLimiter) *Server {
	s := &Server{backend: backend, limiter: limiter}
	mux := http.NewServeMux()
	mux.HandleFunc("/domain/", s.handleDomain)
	s.http = &http.Server{Handler: mux}
	return s
}

// Serve listens on addr and serves until Close. Returns the bound address.
func (s *Server) Serve(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	go s.http.Serve(ln)
	return ln.Addr(), nil
}

// Close shuts the server down.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	return s.http.Close()
}

// rdapError is the RFC 9083 error body.
type rdapError struct {
	ErrorCode   int    `json:"errorCode"`
	Title       string `json:"title"`
	Description string `json:"description,omitempty"`
}

func (s *Server) handleDomain(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/domain/")
	name = dnsname.Canonical(name)
	if name == "" || dnsname.Check(name) != nil {
		writeJSON(w, http.StatusBadRequest, rdapError{400, "Bad Request", "malformed domain"})
		return
	}
	key, _, _ := net.SplitHostPort(r.RemoteAddr)
	// Honor a worker-identity header so simulations can exercise the
	// paper's "cycle measurements over different IPv4 addresses" tactic.
	if h := r.Header.Get("X-Forwarded-For"); h != "" {
		key = h
	}
	if s.limiter != nil && !s.limiter.Allow(key) {
		writeJSON(w, http.StatusTooManyRequests, rdapError{429, "Rate Limit Exceeded", ""})
		return
	}
	rec, err := s.backend.RDAPDomain(name)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, domainResponse(rec))
	case errors.Is(err, ErrNotFound):
		writeJSON(w, http.StatusNotFound, rdapError{404, "Not Found", ""})
	case errors.Is(err, ErrNotSynced):
		// Registries commonly surface not-yet-synced data as 404 too;
		// keep them distinguishable via the description for debugging.
		writeJSON(w, http.StatusNotFound, rdapError{404, "Not Found", "not yet synchronized"})
	default:
		writeJSON(w, http.StatusServiceUnavailable, rdapError{503, "Unavailable", err.Error()})
	}
}

// domainResponse renders the RFC 9083 domain object subset.
func domainResponse(rec *Record) map[string]any {
	return map[string]any{
		"objectClassName": "domain",
		"ldhName":         rec.Domain,
		"status":          rec.Status,
		"events": []map[string]any{
			{"eventAction": "registration", "eventDate": rec.Registered.UTC().Format(time.RFC3339)},
		},
		"entities": []map[string]any{
			{
				"objectClassName": "entity",
				"roles":           []string{"registrar"},
				"vcardArray": []any{"vcard", []any{
					[]any{"fn", map[string]any{}, "text", rec.Registrar},
				}},
			},
		},
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/rdap+json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// Client queries an RDAP server over HTTP. Failed queries are never
// retried (paper §3 step 2: "to minimize overhead, we did not retry
// failed queries").
type Client struct {
	base   string
	http   *http.Client
	worker string // X-Forwarded-For identity for limiter cycling
}

// NewClient creates a client for the RDAP service at base
// (e.g. "http://127.0.0.1:4321"). worker identifies the measurement
// worker for rate-limit cycling; empty means the transport address.
func NewClient(base, worker string) *Client {
	return &Client{
		base:   strings.TrimRight(base, "/"),
		http:   &http.Client{Timeout: 10 * time.Second},
		worker: worker,
	}
}

// Domain implements Querier.
func (c *Client) Domain(ctx context.Context, name string) (*Record, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/domain/"+dnsname.Canonical(name), nil)
	if err != nil {
		return nil, err
	}
	if c.worker != "" {
		req.Header.Set("X-Forwarded-For", c.worker)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return parseDomainResponse(resp.Body)
	case http.StatusNotFound:
		return nil, ErrNotFound
	case http.StatusTooManyRequests:
		return nil, ErrRateLimited
	default:
		return nil, fmt.Errorf("%w: HTTP %d", ErrUnavailable, resp.StatusCode)
	}
}

// parseDomainResponse extracts the Record fields from an RFC 9083 domain
// object.
func parseDomainResponse(r io.Reader) (*Record, error) {
	var body struct {
		LDHName string   `json:"ldhName"`
		Status  []string `json:"status"`
		Events  []struct {
			EventAction string `json:"eventAction"`
			EventDate   string `json:"eventDate"`
		} `json:"events"`
		Entities []struct {
			Roles      []string `json:"roles"`
			VCardArray []any    `json:"vcardArray"`
		} `json:"entities"`
	}
	if err := json.NewDecoder(r).Decode(&body); err != nil {
		return nil, fmt.Errorf("rdap: bad response: %w", err)
	}
	rec := &Record{Domain: dnsname.Canonical(body.LDHName), Status: body.Status}
	for _, ev := range body.Events {
		if ev.EventAction == "registration" {
			t, err := time.Parse(time.RFC3339, ev.EventDate)
			if err != nil {
				return nil, fmt.Errorf("rdap: bad event date: %w", err)
			}
			rec.Registered = t
		}
	}
	for _, ent := range body.Entities {
		for _, role := range ent.Roles {
			if role == "registrar" {
				rec.Registrar = vcardFN(ent.VCardArray)
			}
		}
	}
	return rec, nil
}

// vcardFN digs the "fn" value out of a jCard array.
func vcardFN(v []any) string {
	if len(v) != 2 {
		return ""
	}
	props, ok := v[1].([]any)
	if !ok {
		return ""
	}
	for _, p := range props {
		fields, ok := p.([]any)
		if !ok || len(fields) < 4 {
			continue
		}
		if name, _ := fields[0].(string); name == "fn" {
			if s, ok := fields[3].(string); ok {
				return s
			}
		}
	}
	return ""
}
