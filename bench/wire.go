package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"darkdns/internal/dnsmsg"
	"darkdns/internal/dnsserver"
	"darkdns/internal/registry"
	"darkdns/internal/resolver"
	"darkdns/internal/simclock"
)

// wireRig is probe_wire's authoritative side: a TLD registry holding the
// generated delegations, served by an in-process dnsserver on loopback.
type wireRig struct {
	handler *dnsserver.TLDHandler
	srv     *dnsserver.Server
	addr    string
}

func openWireRig(in *wireInput) (*wireRig, error) {
	clk := simclock.NewSim(time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC))
	reg := registry.New(registry.DefaultConfig(in.tld), clk, rand.New(rand.NewSource(1)))
	for i, name := range in.names {
		if in.ns[i] == nil {
			continue
		}
		if _, err := reg.Register(name, "bench-registrar", in.ns[i], netip.Addr{}); err != nil {
			return nil, err
		}
	}
	// Registrations enter the live zone at the next rebuild.
	clk.Advance(time.Hour)
	h := &dnsserver.TLDHandler{Registry: reg}
	srv := dnsserver.New(h)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &wireRig{handler: h, srv: srv, addr: addr.String()}, nil
}

// checkAnswer compares one lookup's outcome with the generated truth: the
// delegation's NS set for a delegated name, ErrNXDomain for an absent one.
func checkAnswer(r resolver.Result, want []string) bool {
	if want == nil {
		return errors.Is(r.Err, resolver.ErrNXDomain)
	}
	if r.Err != nil {
		return false
	}
	got := make([]string, 0, len(r.Records))
	for i := range r.Records {
		got = append(got, r.Records[i].NS)
	}
	slices.Sort(got)
	return slices.Equal(got, want) // generated NS sets are sorted
}

// runProbeWire is the only workload in which resolver, dnsmsg, dnsserver
// and real sockets do the work: one caller issues back-to-back
// LookupBatch calls of 64 NS queries against the loopback server.
func runProbeWire(e *env) *result {
	res := newResult()
	setupStart := time.Now()
	in := genWireInput(e.seed, e.size.wireBatches)
	rig, err := openWireRig(in)
	if err != nil {
		e.failf(1, "set-up: %v", err)
		return res
	}
	defer rig.srv.Close()
	res.notes = append(res.notes, "input_hash="+in.hash,
		fmt.Sprintf("closed loop, 1 caller: %d batches of %d NS queries (%d fresh + %d repeated) over %d UDP sockets; traffic crosses loopback, not a link",
			len(in.batches), wireFresh+wireRepeat, wireFresh, wireRepeat, e.width))

	queries := func(idx []int) []resolver.Query {
		qs := make([]resolver.Query, len(idx))
		for i, k := range idx {
			qs[i] = resolver.Query{Name: in.names[k], Type: dnsmsg.TypeNS}
		}
		return qs
	}
	ctx := context.Background()
	acc := layerAcc{}
	// One rep: a fresh resolver over fresh sockets, its cache primed with
	// the lookback window, then every batch in order.
	rep := func(tr *tracer, run int, batchMs *[][]float64) (time.Duration, int64) {
		ex := &resolver.UDPExchanger{Addr: rig.addr, Conns: e.width, Timeout: 500 * time.Millisecond, Retries: 2}
		defer ex.Close()
		rsv := resolver.New(resolver.Config{}, simclock.Real{}, ex, nil)
		for _, idx := range in.prime {
			rsv.LookupBatch(ctx, queries(idx))
		}
		before := rsv.CacheStats()
		var bad, total int64
		took := make([]float64, 0, len(in.batches))
		s := tr.begin("rep", 0, run)
		for _, idx := range in.batches {
			qs := queries(idx)
			b := tr.begin("resolver.LookupBatch", s.id, run)
			results := rsv.LookupBatch(ctx, qs)
			took = append(took, ms(tr.end(b)))
			for i, r := range results {
				if !checkAnswer(r, in.ns[idx[i]]) {
					bad++
				}
			}
			total += int64(len(qs))
		}
		wall := tr.end(s)
		if batchMs != nil {
			// Windows of 100 calls (≈ 0.1 s) for the delivery percentiles.
			*batchMs = slices.AppendSeq(*batchMs, slices.Chunk(took, tailSamples))
		}
		res.attempted += total
		if bad > 0 {
			e.failf(bad, "rep %d: %d of %d answers differ from the generated truth", run, bad, total)
		}
		if tr != nil {
			cs := rsv.CacheStats()
			hits, misses, coalesced := cs.Hits-before.Hits, cs.Misses-before.Misses, cs.Coalesced-before.Coalesced
			acc.add("resolver.queries", float64(total))
			acc.add("resolver.cache_hits", float64(hits))
			acc.add("resolver.cache_misses", float64(misses))
			acc.add("resolver.coalesced", float64(coalesced))
			acc.add("resolver.cache_hit_ratio", ratio(float64(hits), float64(total)))
			acc.add("resolver.errors", float64(bad))
		}
		return wall, total
	}
	rep(nil, 0, nil) // warm-up
	setup := time.Since(setupStart)

	var batchMs, tracedMs [][]float64
	t := e.timedReps(e.size.wireReps, func(tr *tracer, run int) (time.Duration, int64) {
		if tr != nil {
			return rep(tr, run, &tracedMs)
		}
		return rep(nil, run, &batchMs)
	})
	res.endToEnd([]float64{setup.Seconds()}, t.walls, batchMs, t.items, t.mem)
	if e.tr != nil {
		sorted := sortedCopy(slices.Concat(tracedMs...))
		res.layerMedians(acc)
		res.setLayer("resolver.batch_p50_ms", percentile(sorted, 0.5))
		res.setLayer("resolver.batch_p99_ms", percentile(sorted, 0.99))
		wireIsolation(e, in, rig, res)
		res.runtimeLayer(t.mem, median(t.walls), median(t.tracedWalls))
	}
	return res
}

// wireIsolation times the three layers under a lookup alone, on the
// workload's own messages: packing a query, unpacking the server's answer
// to it, and the handler producing that answer.
func wireIsolation(e *env, in *wireInput, rig *wireRig, res *result) {
	n := min(e.size.isolationN, len(in.names))
	msgs := make([]*dnsmsg.Message, n)
	answers := make([][]byte, n)
	for i := range msgs {
		msgs[i] = dnsmsg.NewQuery(uint16(i), in.names[i], dnsmsg.TypeNS)
	}
	pack := e.tr.timed("dnsmsg.Pack", 0, 0, func() {
		for _, m := range msgs {
			if _, err := m.Pack(); err != nil {
				e.failf(1, "pack %s: %v", m.Questions[0].Name, err)
			}
		}
	})
	resps := make([]*dnsmsg.Message, n)
	handle := e.tr.timed("dnsserver.TLDHandler.Handle", 0, 0, func() {
		for i, m := range msgs {
			resps[i] = rig.handler.Handle(m.Questions[0])
		}
	})
	for i, resp := range resps {
		var err error
		if answers[i], err = resp.Pack(); err != nil {
			e.failf(1, "pack answer: %v", err)
		}
	}
	unpack := e.tr.timed("dnsmsg.Unpack", 0, 0, func() {
		for _, wire := range answers {
			if _, err := dnsmsg.Unpack(wire); err != nil {
				e.failf(1, "unpack: %v", err)
			}
		}
	})
	res.setLayer("dnsmsg.pack_ns", ratio(float64(pack), float64(n)))
	res.setLayer("dnsmsg.unpack_ns", ratio(float64(unpack), float64(n)))
	res.setLayer("dnsserver.handle_ns", ratio(float64(handle), float64(n)))
}
