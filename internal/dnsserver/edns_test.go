package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"darkdns/internal/dnsmsg"
	"darkdns/internal/registry"
	"darkdns/internal/resolver"
	"darkdns/internal/simclock"
)

// TestEDNSLiftsTruncation verifies RFC 6891 behaviour over real UDP: a
// response exceeding 512 bytes is truncated for plain queries but
// delivered whole when the client advertises a larger payload size.
func TestEDNSLiftsTruncation(t *testing.T) {
	h := NewHostingHandler(60)
	// 40 A records ≈ 40×(compressed name ~2 + 14) + overhead > 512 bytes.
	var addrs []netip.Addr
	for i := 0; i < 40; i++ {
		addrs = append(addrs, netip.MustParseAddr(fmt.Sprintf("104.16.%d.%d", i/250, i%250+1)))
	}
	h.Set("big.com", addrs...)
	addr, stop := startServer(t, h)
	defer stop()

	ex := &resolver.UDPExchanger{Addr: addr, Timeout: 2 * time.Second, Retries: 2}

	plain := dnsmsg.NewQuery(7, "big.com", dnsmsg.TypeA)
	resp, err := ex.Exchange(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Truncated {
		t.Fatalf("plain UDP response not truncated: %d answers", len(resp.Answers))
	}

	edns := dnsmsg.NewQuery(8, "big.com", dnsmsg.TypeA)
	edns.SetEDNS0(dnsmsg.DefaultEDNSSize)
	resp, err = ex.Exchange(context.Background(), edns)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Truncated {
		t.Fatal("EDNS response still truncated")
	}
	if len(resp.Answers) != 40 {
		t.Fatalf("EDNS answers = %d, want 40", len(resp.Answers))
	}
}

// TestResolverDoesNotCacheTruncatedAnswer: the resolver's queries carry no
// OPT, so a delegation whose NS set packs past 512 bytes comes back with
// TC set and no records. That is a failed exchange (ErrTruncated), not
// "in zone, no nameservers": it must not be returned as an answer and
// must not be cached.
func TestResolverDoesNotCacheTruncatedAnswer(t *testing.T) {
	clk := simclock.NewSim(t0)
	reg := registry.New(registry.DefaultConfig("shop"), clk, rand.New(rand.NewSource(1)))
	defer reg.Stop()
	var big []string
	for i := 0; i < 13; i++ {
		big = append(big, fmt.Sprintf("ns%02d.a-rather-long-provider-name-%02d.dns-hosting-%02d.example", i, i, i))
	}
	reg.Register("big.shop", "R", big, netip.Addr{})
	reg.Register("small.shop", "R", []string{"ns1.example.net", "ns2.example.net"}, netip.Addr{})
	clk.Advance(time.Hour) // past the zone's next rebuild
	addr, stop := startServer(t, &TLDHandler{Registry: reg})
	defer stop()

	ex := &resolver.UDPExchanger{Addr: addr, Timeout: 2 * time.Second}
	defer ex.Close()
	res := resolver.New(resolver.Config{}, clk, ex, nil)
	for attempt := 1; attempt <= 2; attempt++ {
		out := res.LookupBatch(context.Background(), []resolver.Query{
			{Name: "big.shop", Type: dnsmsg.TypeNS},
			{Name: "small.shop", Type: dnsmsg.TypeNS},
		})
		if !errors.Is(out[0].Err, resolver.ErrTruncated) || out[0].Records != nil {
			t.Fatalf("lookup %d of a truncated answer: %v, %v (want ErrTruncated)", attempt, out[0].Records, out[0].Err)
		}
		if out[1].Err != nil || len(out[1].Records) != 2 {
			t.Fatalf("lookup %d beside it: %v, %v", attempt, out[1].Records, out[1].Err)
		}
	}
	// big.shop went to the wire both times; small.shop was cached.
	if cs := res.CacheStats(); cs.Misses != 3 || cs.Hits != 1 || cs.Entries != 1 {
		t.Errorf("cache after two rounds: %+v, want 3 misses, 1 hit, 1 entry", cs)
	}
}
