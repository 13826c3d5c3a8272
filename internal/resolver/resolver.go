// Package resolver implements the caching stub resolver the measurement
// fleet uses: an Unbound-like cache with a configurable maximum TTL clamp
// (the paper runs 60 s to keep A/AAAA answers fresh), negative caching,
// and a direct-exchange mode for talking straight to TLD authoritative
// servers.
//
// The cache is the probe engine's hot shared structure (DESIGN.md §10):
// it is striped 64 ways on dnsname.Hash64 with per-shard hit/miss
// counters and a per-shard singleflight table, so concurrent lookups of
// distinct names never contend and concurrent lookups of the same
// expired name collapse to one upstream exchange. Batched lookups
// (LookupBatch) deduplicate in-flight keys and fan cache misses out
// through the exchange layer (exchange.go): a pooled, pipelined
// UDPExchanger for real sockets, LocalExchanger for in-process
// dnsserver handlers, and Lanes for per-nameserver admission control.
//
// Determinism: query transaction IDs are derived from (seed, name,
// type, attempt) — no shared RNG, no lock, and the wire trace of a
// simulated campaign is identical at any lookup concurrency.
package resolver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"darkdns/internal/dnsmsg"
	"darkdns/internal/dnsname"
	"darkdns/internal/simclock"
)

// Exchanger performs one DNS round trip. Implementations: UDPExchanger
// (real sockets) and LocalExchanger (in-process dnsserver handlers).
type Exchanger interface {
	Exchange(ctx context.Context, msg *dnsmsg.Message) (*dnsmsg.Message, error)
}

// ExchangerFunc adapts a function to Exchanger.
type ExchangerFunc func(ctx context.Context, msg *dnsmsg.Message) (*dnsmsg.Message, error)

// Exchange implements Exchanger.
func (f ExchangerFunc) Exchange(ctx context.Context, msg *dnsmsg.Message) (*dnsmsg.Message, error) {
	return f(ctx, msg)
}

// BatchExchanger is the optional Exchanger extension the batched probe
// engine prefers: one call carries a whole batch of queries so the
// transport can pipeline them over pooled sockets (UDPExchanger) or fan
// them out on a worker pool (LocalExchanger). resps[i]/errs[i] answer
// msgs[i]; exactly one of the pair is non-nil per slot.
type BatchExchanger interface {
	Exchanger
	ExchangeBatch(ctx context.Context, msgs []*dnsmsg.Message) (resps []*dnsmsg.Message, errs []error)
}

// Errors returned by Lookup and the exchange layer.
var (
	ErrNXDomain = errors.New("resolver: name does not exist")
	ErrServFail = errors.New("resolver: server failure")
	// ErrTimeout: every attempt's window elapsed without a matching
	// response datagram.
	ErrTimeout = errors.New("resolver: query timed out")
	// ErrDial: the transport could not reach the server (dial or write
	// failure, or the kernel surfaced an ICMP refusal on the socket).
	ErrDial = errors.New("resolver: server unreachable")
	// ErrBadResponse: the attempt window elapsed while the server was
	// sending datagrams that failed to parse — a misbehaving or
	// middlebox-mangled endpoint, not a silent one, so retry policy can
	// treat it differently from ErrTimeout.
	ErrBadResponse = errors.New("resolver: malformed response")
	// ErrTruncated: the server set TC — the answer did not fit the
	// datagram, so the records that came are not the answer. There is no
	// TCP fallback yet; the lookup fails and nothing is cached.
	ErrTruncated = errors.New("resolver: response truncated")
	// ErrRateLimited: a nameserver lane's bounded queue was full and the
	// query was shed instead of enqueued (never block the probe path
	// behind a slow authority).
	ErrRateLimited = errors.New("resolver: nameserver rate limited")
)

// cacheShards stripes the cache and singleflight tables, as many as the
// worldsim DomainStore has, for concurrent LookupBatch callers. Power of
// two for cheap masking.
const cacheShards = 64

// cacheKey identifies a cached RRset.
type cacheKey struct {
	name string
	typ  dnsmsg.Type
}

type cacheEntry struct {
	records  []dnsmsg.Record
	rcode    dnsmsg.RCode
	expires  time.Time
	inserted time.Time
}

// flight is one in-progress upstream exchange; concurrent lookups of
// the same key wait on done instead of issuing duplicate queries. done
// is made by the first lookup that joins (under the shard lock, which
// is also where complete retires the flight), so an exchange nobody
// joins — nearly all of them — costs no channel.
type flight struct {
	done chan struct{}
	recs []dnsmsg.Record
	err  error
}

// cacheShard is one stripe: a mutex-guarded entry map, the in-flight
// exchange table, and this stripe's counters.
type cacheShard struct {
	mu        sync.Mutex
	entries   map[cacheKey]cacheEntry
	inflight  map[cacheKey]*flight
	hits      int64
	misses    int64
	coalesced int64 // lookups that joined another caller's flight
}

// Config parameterizes a Resolver.
type Config struct {
	// MaxTTL clamps positive answers' cache lifetime. The paper's
	// measurement resolvers use 60 s.
	MaxTTL time.Duration
	// NegTTL is the cache lifetime of NXDOMAIN answers.
	NegTTL time.Duration
}

// Resolver is a caching stub resolver over an Exchanger.
type Resolver struct {
	cfg  Config
	clk  simclock.Clock
	ex   Exchanger
	seed int64

	shards [cacheShards]cacheShard
}

// New creates a resolver. clk drives cache expiry so simulations expire
// entries on virtual time. rng, when non-nil, seeds the deterministic
// query-ID derivation (one draw at construction — per-call IDs are
// derived, never drawn, so lookups share no RNG state).
func New(cfg Config, clk simclock.Clock, ex Exchanger, rng *rand.Rand) *Resolver {
	if cfg.MaxTTL <= 0 {
		cfg.MaxTTL = 60 * time.Second
	}
	if cfg.NegTTL <= 0 {
		cfg.NegTTL = 60 * time.Second
	}
	seed := int64(1)
	if rng != nil {
		seed = rng.Int63()
	}
	r := &Resolver{cfg: cfg, clk: clk, ex: ex, seed: seed}
	for i := range r.shards {
		r.shards[i].entries = make(map[cacheKey]cacheEntry)
		r.shards[i].inflight = make(map[cacheKey]*flight)
	}
	return r
}

// shard maps a canonical name to its cache stripe.
func (r *Resolver) shard(name string) *cacheShard {
	return &r.shards[dnsname.Hash64(name)&(cacheShards-1)]
}

// QueryID derives the transaction ID for attempt n of a (name, type)
// query under seed. Pure function of its inputs — replacing the old
// shared *rand.Rand (which raced under concurrent lookups) and making
// the wire trace independent of lookup interleaving. Transports retry
// with AttemptID so each attempt is distinguishable on the wire.
func QueryID(seed int64, name string, typ dnsmsg.Type, attempt int) uint16 {
	h := dnsname.Hash64(dnsname.Canonical(name))
	h ^= uint64(seed) * 0x9e3779b97f4a7c15
	h ^= uint64(typ) << 32
	return AttemptID(uint16(dnsname.Mix64(h)), attempt)
}

// AttemptID rotates a base transaction ID for retry attempt n (attempt
// 0 is the base itself). Transports apply it per attempt so a late
// answer to a timed-out attempt is never mistaken for the current one,
// and the (seed, name, type, attempt) → ID derivation stays total.
func AttemptID(base uint16, attempt int) uint16 {
	if attempt == 0 {
		return base
	}
	return uint16(dnsname.Mix64(uint64(base) ^ uint64(attempt)<<16))
}

// Stats returns cumulative cache hit/miss counters summed over shards.
// Lookups that coalesced onto another caller's in-flight exchange count
// as hits (the cache answered them without an upstream query).
func (r *Resolver) Stats() (hits, misses int64) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		hits += sh.hits + sh.coalesced
		misses += sh.misses
		sh.mu.Unlock()
	}
	return hits, misses
}

// CacheStats is the probe engine's operational view of the cache.
type CacheStats struct {
	Hits      int64 // answered from a live cache entry
	Misses    int64 // upstream exchanges issued
	Coalesced int64 // joined another lookup's in-flight exchange
	Entries   int   // live + expired entries currently held
}

// CacheStats sums the per-shard counters.
func (r *Resolver) CacheStats() CacheStats {
	var cs CacheStats
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		cs.Hits += sh.hits
		cs.Misses += sh.misses
		cs.Coalesced += sh.coalesced
		cs.Entries += len(sh.entries)
		sh.mu.Unlock()
	}
	return cs
}

// Flush clears the cache. In-flight exchanges are unaffected: they
// complete and re-populate their keys.
func (r *Resolver) Flush() {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[cacheKey]cacheEntry)
		sh.mu.Unlock()
	}
}

// Lookup resolves (name, type), consulting the cache first. It returns
// the answer records; NXDOMAIN surfaces as ErrNXDomain (cached
// negatively), other failures as ErrServFail / the exchange layer's
// transport errors (not cached). Concurrent lookups of the same key
// coalesce onto one upstream exchange (singleflight), so a thundering
// herd of misses on an expired entry costs one query.
func (r *Resolver) Lookup(ctx context.Context, name string, typ dnsmsg.Type) ([]dnsmsg.Record, error) {
	name = dnsname.Canonical(name)
	key := cacheKey{name, typ}
	sh := r.shard(name)

	sh.mu.Lock()
	if recs, hit, err := sh.cachedLocked(key, r.clk.Now()); hit {
		sh.mu.Unlock()
		return recs, err
	}
	if fl, ok := sh.inflight[key]; ok {
		done := sh.joinLocked(fl)
		sh.mu.Unlock()
		return r.await(ctx, fl, done)
	}
	fl := &flight{}
	sh.inflight[key] = fl
	sh.misses++
	sh.mu.Unlock()

	q := dnsmsg.NewQuery(QueryID(r.seed, name, typ, 0), name, typ)
	resp, err := r.ex.Exchange(ctx, q)
	return r.complete(sh, key, fl, resp, err)
}

// joinLocked counts a lookup that found fl in flight and returns the
// channel it waits on, making it if this is the first joiner. Caller
// holds sh.mu.
func (sh *cacheShard) joinLocked(fl *flight) <-chan struct{} {
	sh.coalesced++
	if fl.done == nil {
		fl.done = make(chan struct{})
	}
	return fl.done
}

// cachedLocked serves key from the shard's entry table. Caller holds
// sh.mu. hit reports whether a live entry answered.
func (sh *cacheShard) cachedLocked(key cacheKey, now time.Time) (recs []dnsmsg.Record, hit bool, err error) {
	e, ok := sh.entries[key]
	if !ok || !e.expires.After(now) {
		return nil, false, nil
	}
	sh.hits++
	if e.rcode == dnsmsg.RCodeNXDomain {
		return nil, true, ErrNXDomain
	}
	return e.records, true, nil
}

// await blocks until fl completes (or ctx cancels) and returns its
// outcome — the joining half of the singleflight.
func (r *Resolver) await(ctx context.Context, fl *flight, done <-chan struct{}) ([]dnsmsg.Record, error) {
	select {
	case <-done:
		return fl.recs, fl.err
	case <-ctx.Done():
		return nil, fmt.Errorf("resolver: lookup canceled: %w", ctx.Err())
	}
}

// complete classifies an exchange outcome, stores cacheable answers,
// publishes the result to every lookup joined on fl, and retires the
// flight.
func (r *Resolver) complete(sh *cacheShard, key cacheKey, fl *flight, resp *dnsmsg.Message, err error) ([]dnsmsg.Record, error) {
	var recs []dnsmsg.Record
	if err == nil {
		now := r.clk.Now()
		switch {
		case resp.Header.Truncated:
			err = fmt.Errorf("%w: %s %s", ErrTruncated, key.name, key.typ)
		case resp.Header.RCode == dnsmsg.RCodeNoError:
			ttl := r.cfg.MaxTTL
			for _, rec := range resp.Answers {
				if d := time.Duration(rec.TTL) * time.Second; d < ttl {
					ttl = d
				}
			}
			recs = resp.Answers
			r.store(sh, key, cacheEntry{records: recs, rcode: resp.Header.RCode, expires: now.Add(ttl), inserted: now})
		case resp.Header.RCode == dnsmsg.RCodeNXDomain:
			err = ErrNXDomain
			r.store(sh, key, cacheEntry{rcode: resp.Header.RCode, expires: now.Add(r.cfg.NegTTL), inserted: now})
		default:
			err = fmt.Errorf("%w: %s", ErrServFail, resp.Header.RCode)
		}
	}
	fl.recs, fl.err = recs, err
	sh.mu.Lock()
	delete(sh.inflight, key)
	done := fl.done // final: no lookup can find fl to join it any more
	sh.mu.Unlock()
	if done != nil {
		close(done)
	}
	return recs, err
}

func (r *Resolver) store(sh *cacheShard, key cacheKey, e cacheEntry) {
	sh.mu.Lock()
	sh.entries[key] = e
	sh.mu.Unlock()
}

// Query names one lookup in a batch.
type Query struct {
	Name string
	Type dnsmsg.Type
}

// Result is one batch lookup's outcome, positionally matching the
// query slice handed to LookupBatch.
type Result struct {
	Records []dnsmsg.Record
	Err     error
}

// batchMiss is one distinct key of a batch that the cache could not
// answer: owned when this call won the singleflight registration and
// must exchange it, joined (done non-nil) when another lookup already
// is.
type batchMiss struct {
	key  cacheKey
	fl   *flight
	done <-chan struct{} // joined misses only
}

// LookupBatch resolves qs as one operation: cache hits answer
// immediately, duplicate keys within the batch collapse to one lookup,
// keys already in flight (here or in any concurrent Lookup) are joined
// rather than re-queried, and the remaining misses go through the
// exchange layer — as a single pipelined ExchangeBatch call when the
// transport supports it, otherwise one after another on the caller.
// Results are positional; each slot carries records or an error exactly
// as Lookup would have returned them.
func (r *Resolver) LookupBatch(ctx context.Context, qs []Query) []Result {
	out := make([]Result, len(qs))
	// Per-batch slabs, sized for the worst case of every query missing.
	// flights must never move: the shards' inflight tables point into it.
	misses := make([]batchMiss, 0, len(qs))
	flights := make([]flight, 0, len(qs))
	src := make([]int32, len(qs)) // result slot → misses index, -1 for a cache hit
	owned := 0

	for i, q := range qs {
		key := cacheKey{dnsname.Canonical(q.Name), q.Type}
		sh := r.shard(key.name)
		sh.mu.Lock()
		if recs, hit, err := sh.cachedLocked(key, r.clk.Now()); hit {
			sh.mu.Unlock()
			out[i], src[i] = Result{Records: recs, Err: err}, -1
			continue
		}
		if fl, ok := sh.inflight[key]; ok {
			// In flight: a duplicate of a key this batch already holds, or
			// another lookup's exchange to join. The inflight table is the
			// index either way; no per-batch map.
			s := slices.IndexFunc(misses, func(m batchMiss) bool { return m.fl == fl })
			if s < 0 {
				s = len(misses)
				misses = append(misses, batchMiss{key: key, fl: fl, done: sh.joinLocked(fl)})
			}
			sh.mu.Unlock()
			src[i] = int32(s)
			continue
		}
		flights = append(flights, flight{})
		fl := &flights[len(flights)-1]
		sh.inflight[key] = fl
		sh.misses++
		sh.mu.Unlock()
		src[i] = int32(len(misses))
		misses = append(misses, batchMiss{key: key, fl: fl})
		owned++
	}

	if owned > 0 {
		msgs := make([]*dnsmsg.Message, 0, owned)
		slab := make([]dnsmsg.Message, owned)
		questions := make([]dnsmsg.Question, owned)
		for _, m := range misses {
			if m.done != nil {
				continue
			}
			n := len(msgs)
			questions[n] = dnsmsg.Question{Name: m.key.name, Type: m.key.typ, Class: dnsmsg.ClassIN}
			slab[n] = dnsmsg.Message{
				Header:    dnsmsg.Header{ID: QueryID(r.seed, m.key.name, m.key.typ, 0), RecursionDesired: true},
				Questions: questions[n : n+1 : n+1],
			}
			msgs = append(msgs, &slab[n])
		}
		var resps []*dnsmsg.Message
		var errs []error
		if be, ok := r.ex.(BatchExchanger); ok {
			resps, errs = be.ExchangeBatch(ctx, msgs)
		} else {
			resps, errs = make([]*dnsmsg.Message, owned), make([]error, owned)
			for i, msg := range msgs {
				resps[i], errs[i] = r.ex.Exchange(ctx, msg)
			}
		}
		n := 0
		for _, m := range misses {
			if m.done == nil {
				r.complete(r.shard(m.key.name), m.key, m.fl, resps[n], errs[n])
				n++
			}
		}
	}
	for i, s := range src {
		if s < 0 {
			continue
		}
		if m := misses[s]; m.done == nil {
			out[i] = Result{Records: m.fl.recs, Err: m.fl.err} // completed above
		} else {
			out[i].Records, out[i].Err = r.await(ctx, m.fl, m.done)
		}
	}
	return out
}

// LookupAddrs resolves name to all IPv4 and IPv6 addresses — A and AAAA
// issued as one batch, so a batch-capable exchanger carries both
// questions in a single pipelined round.
func (r *Resolver) LookupAddrs(ctx context.Context, name string) (v4, v6 []dnsmsg.Record, err error) {
	res := r.LookupBatch(ctx, []Query{{Name: name, Type: dnsmsg.TypeA}, {Name: name, Type: dnsmsg.TypeAAAA}})
	if res[0].Err != nil && res[1].Err != nil {
		return nil, nil, res[0].Err
	}
	return res[0].Records, res[1].Records, nil
}
