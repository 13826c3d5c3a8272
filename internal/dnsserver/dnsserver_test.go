package dnsserver

import (
	"context"
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"darkdns/internal/dnsmsg"
	"darkdns/internal/registry"
	"darkdns/internal/resolver"
	"darkdns/internal/simclock"
)

var t0 = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

func startServer(t *testing.T, h Handler) (string, func()) {
	t.Helper()
	srv := New(h)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr.String(), func() { srv.Close() }
}

func udpQuery(t *testing.T, addr, name string, typ dnsmsg.Type) *dnsmsg.Message {
	t.Helper()
	ex := &resolver.UDPExchanger{Addr: addr, Timeout: 2 * time.Second, Retries: 2}
	resp, err := ex.Exchange(context.Background(), dnsmsg.NewQuery(42, name, typ))
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	return resp
}

func TestTLDHandlerOverUDP(t *testing.T) {
	clk := simclock.NewSim(t0)
	reg := registry.New(registry.DefaultConfig("com"), clk, rand.New(rand.NewSource(1)))
	defer reg.Stop()
	reg.Register("example.com", "R", []string{"ns1.cloudflare.com", "ns2.cloudflare.com"}, netip.Addr{})
	clk.Advance(time.Minute)

	addr, stop := startServer(t, &TLDHandler{Registry: reg})
	defer stop()

	resp := udpQuery(t, addr, "example.com", dnsmsg.TypeNS)
	if resp.Header.RCode != dnsmsg.RCodeNoError || len(resp.Answers) != 2 {
		t.Fatalf("NS answer: %+v", resp)
	}
	if !resp.Header.Authoritative {
		t.Error("TLD NS answer should be authoritative")
	}

	resp = udpQuery(t, addr, "missing.com", dnsmsg.TypeNS)
	if resp.Header.RCode != dnsmsg.RCodeNXDomain {
		t.Fatalf("want NXDOMAIN, got %v", resp.Header.RCode)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type != dnsmsg.TypeSOA {
		t.Error("NXDOMAIN should carry SOA in authority")
	}

	resp = udpQuery(t, addr, "example.org", dnsmsg.TypeNS)
	if resp.Header.RCode != dnsmsg.RCodeRefused {
		t.Errorf("out-of-zone query: %v", resp.Header.RCode)
	}

	resp = udpQuery(t, addr, "com", dnsmsg.TypeSOA)
	if len(resp.Answers) != 1 || resp.Answers[0].SOA.Serial != reg.Serial() {
		t.Errorf("SOA: %+v", resp.Answers)
	}
}

func TestTLDHandlerReferralForAQuery(t *testing.T) {
	clk := simclock.NewSim(t0)
	reg := registry.New(registry.DefaultConfig("com"), clk, rand.New(rand.NewSource(1)))
	defer reg.Stop()
	reg.Register("example.com", "R", []string{"ns1.cloudflare.com"}, netip.Addr{})
	clk.Advance(time.Minute)
	addr, stop := startServer(t, &TLDHandler{Registry: reg})
	defer stop()

	resp := udpQuery(t, addr, "example.com", dnsmsg.TypeA)
	if len(resp.Answers) != 0 || len(resp.Authority) != 1 {
		t.Errorf("referral shape: %+v", resp)
	}
	if resp.Header.Authoritative {
		t.Error("referral must not be authoritative")
	}
}

func TestHostingHandler(t *testing.T) {
	h := NewHostingHandler(30)
	h.Set("example.com", netip.MustParseAddr("104.16.1.1"), netip.MustParseAddr("2606:4700::1"))
	addr, stop := startServer(t, h)
	defer stop()

	resp := udpQuery(t, addr, "example.com", dnsmsg.TypeA)
	if len(resp.Answers) != 1 || resp.Answers[0].A.String() != "104.16.1.1" {
		t.Errorf("A: %+v", resp.Answers)
	}
	resp = udpQuery(t, addr, "example.com", dnsmsg.TypeAAAA)
	if len(resp.Answers) != 1 || resp.Answers[0].AAAA.String() != "2606:4700::1" {
		t.Errorf("AAAA: %+v", resp.Answers)
	}
	h.Remove("example.com")
	resp = udpQuery(t, addr, "example.com", dnsmsg.TypeA)
	if resp.Header.RCode != dnsmsg.RCodeNXDomain {
		t.Errorf("after Remove: %v", resp.Header.RCode)
	}
}

func TestResolverCachingAgainstLiveServer(t *testing.T) {
	h := NewHostingHandler(300)
	h.Set("cached.com", netip.MustParseAddr("192.0.2.1"))
	addr, stop := startServer(t, h)
	defer stop()

	clk := simclock.NewSim(t0)
	ex := &resolver.UDPExchanger{Addr: addr, Timeout: 2 * time.Second, Retries: 2}
	res := resolver.New(resolver.Config{MaxTTL: 60 * time.Second}, clk, ex, rand.New(rand.NewSource(7)))

	if _, err := res.Lookup(context.Background(), "cached.com", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Lookup(context.Background(), "cached.com", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	hits, misses := res.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	// The 60 s clamp must beat the record's 300 s TTL.
	clk.Advance(61 * time.Second)
	if _, err := res.Lookup(context.Background(), "cached.com", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if _, misses := res.Stats(); misses != 2 {
		t.Errorf("misses = %d after clamp expiry, want 2", misses)
	}
}

func TestResolverNegativeCache(t *testing.T) {
	h := NewHostingHandler(30)
	addr, stop := startServer(t, h)
	defer stop()
	clk := simclock.NewSim(t0)
	ex := &resolver.UDPExchanger{Addr: addr, Timeout: 2 * time.Second, Retries: 2}
	res := resolver.New(resolver.Config{NegTTL: 60 * time.Second}, clk, ex, nil)

	if _, err := res.Lookup(context.Background(), "ghost.com", dnsmsg.TypeA); err != resolver.ErrNXDomain {
		t.Fatalf("want ErrNXDomain, got %v", err)
	}
	// Now the name appears; the negative cache must mask it until expiry.
	h.Set("ghost.com", netip.MustParseAddr("192.0.2.9"))
	if _, err := res.Lookup(context.Background(), "ghost.com", dnsmsg.TypeA); err != resolver.ErrNXDomain {
		t.Fatalf("negative cache miss: %v", err)
	}
	clk.Advance(61 * time.Second)
	recs, err := res.Lookup(context.Background(), "ghost.com", dnsmsg.TypeA)
	if err != nil || len(recs) != 1 {
		t.Fatalf("after negative expiry: %v, %v", recs, err)
	}
}

func TestTCPTransport(t *testing.T) {
	h := NewHostingHandler(30)
	h.Set("tcp.com", netip.MustParseAddr("192.0.2.2"))
	addr, stop := startServer(t, h)
	defer stop()

	// Minimal TCP client: 2-byte length prefix framing.
	conn, err := netDialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := dnsmsg.NewQuery(7, "tcp.com", dnsmsg.TypeA)
	wire, _ := q.Pack()
	framed := append([]byte{byte(len(wire) >> 8), byte(len(wire))}, wire...)
	if _, err := conn.Write(framed); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	head := make([]byte, 2)
	if _, err := ioReadFull(conn, head); err != nil {
		t.Fatal(err)
	}
	n := int(head[0])<<8 | int(head[1])
	body := make([]byte, n)
	if _, err := ioReadFull(conn, body); err != nil {
		t.Fatal(err)
	}
	resp, err := dnsmsg.Unpack(body)
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("TCP response: %+v, %v", resp, err)
	}
}

func TestGarbageDatagramsIgnored(t *testing.T) {
	h := NewHostingHandler(30)
	h.Set("up.com", netip.MustParseAddr("192.0.2.3"))
	addr, stop := startServer(t, h)
	defer stop()
	// Hurl garbage, then confirm the server still answers.
	conn, err := netDialUDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0xde, 0xad})
	conn.Close()
	resp := udpQuery(t, addr, "up.com", dnsmsg.TypeA)
	if len(resp.Answers) != 1 {
		t.Error("server wedged by garbage datagram")
	}
}

func TestCloseIdempotent(t *testing.T) {
	srv := New(NewHostingHandler(30))
	if _, err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUDPFloodMeetsFixedLoops: the UDP side is a fixed set of read loops,
// so 10 000 datagrams fired at a handler that blocks never become
// goroutines — they wait in, or overflow, the kernel's socket buffer —
// and Close returns as soon as the handler lets the loops go.
func TestUDPFloodMeetsFixedLoops(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, runtime.GOMAXPROCS(0))
	h := HandlerFunc(func(q dnsmsg.Question) *dnsmsg.Message {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return &dnsmsg.Message{}
	})
	baseline := runtime.NumGoroutine()
	srv := New(h)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	limit := baseline + runtime.GOMAXPROCS(0) + 1 // the UDP loops and the TCP accept loop

	conn, err := netDialUDP(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire, _ := dnsmsg.NewQuery(1, "flood.com", dnsmsg.TypeA).Pack()
	peak := 0
	for i := 0; i < 10000; i++ {
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			peak = max(peak, runtime.NumGoroutine())
		}
	}
	<-entered // the flood reached the handler
	if peak = max(peak, runtime.NumGoroutine()); peak > limit {
		t.Errorf("%d goroutines under a flood of 10000 datagrams, %d before it: more than the %d serve loops", peak, baseline, limit-baseline)
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	close(gate)
	select {
	case err := <-closed:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the handler was released")
	}
}
