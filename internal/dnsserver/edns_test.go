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
	if _, ok := resp.EDNSSize(); ok || len(resp.Additional) != 0 {
		t.Errorf("reply to a query without OPT carries %d additional records", len(resp.Additional))
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
	wantOPT(t, "EDNS reply", resp)
}

// wantOPT fails unless resp carries exactly one OPT, advertising the
// server's payload limit.
func wantOPT(t *testing.T, what string, resp *dnsmsg.Message) {
	t.Helper()
	opts := 0
	for _, r := range resp.Additional {
		if r.Type == dnsmsg.TypeOPT {
			opts++
		}
	}
	if size, _ := resp.EDNSSize(); opts != 1 || size != udpPayload {
		t.Errorf("%s: %d OPT records advertising %d, want one advertising %d", what, opts, size, udpPayload)
	}
}

// TestEDNSEchoedOnEveryReply (RFC 6891 §7): whatever the reply to a query
// that carried an OPT — an answer, NXDOMAIN, NOTIMP, SERVFAIL or a
// truncated one — it carries an OPT of its own over UDP and over TCP,
// and a truncated reply fits the advertised size with its OPT counted.
func TestEDNSEchoedOnEveryReply(t *testing.T) {
	var many []dnsmsg.Record
	for i := 0; i < 40; i++ {
		many = append(many, dnsmsg.Record{Name: "big.example", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 60,
			A: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})})
	}
	h := HandlerFunc(func(q dnsmsg.Question) *dnsmsg.Message {
		resp := &dnsmsg.Message{Header: dnsmsg.Header{Response: true, Authoritative: true}}
		switch q.Name {
		case "nil.example":
			return nil
		case "gone.example":
			resp.Header.RCode = dnsmsg.RCodeNXDomain
		case "big.example":
			resp.Answers = many
		default:
			resp.Answers = many[:1]
		}
		return resp
	})
	addr, stop := startServer(t, h)
	defer stop()
	uconn, err := netDialUDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer uconn.Close()
	tconn, err := netDialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tconn.Close()

	cases := []struct {
		name   string
		opcode uint8
		rcode  dnsmsg.RCode
		tc     bool
	}{
		{"ok.example", 0, dnsmsg.RCodeNoError, false},
		{"gone.example", 0, dnsmsg.RCodeNXDomain, false},
		{"nil.example", 0, dnsmsg.RCodeServFail, false},
		{"ok.example", 2, dnsmsg.RCodeNotImp, false},
		{"big.example", 0, dnsmsg.RCodeNoError, true},
	}
	for i, tc := range cases {
		q := dnsmsg.NewQuery(uint16(i+1), tc.name, dnsmsg.TypeA)
		q.Header.OpCode = tc.opcode
		q.SetEDNS0(512) // the smallest size, so 40 records truncate
		wire, _ := q.Pack()
		for _, transport := range []string{"udp", "tcp"} {
			var got []byte
			if transport == "udp" {
				uconn.Write(wire)
				uconn.SetReadDeadline(time.Now().Add(2 * time.Second))
				buf := make([]byte, 64<<10)
				n, err := uconn.Read(buf)
				if err != nil {
					t.Fatal(err)
				}
				got = buf[:n]
			} else {
				tconn.Write(append([]byte{byte(len(wire) >> 8), byte(len(wire))}, wire...))
				tconn.SetReadDeadline(time.Now().Add(2 * time.Second))
				head := make([]byte, 2)
				if _, err := ioReadFull(tconn, head); err != nil {
					t.Fatal(err)
				}
				got = make([]byte, int(head[0])<<8|int(head[1]))
				if _, err := ioReadFull(tconn, got); err != nil {
					t.Fatal(err)
				}
			}
			what := fmt.Sprintf("%s opcode %d over %s", tc.name, tc.opcode, transport)
			resp, err := dnsmsg.Unpack(got)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			tcWant := tc.tc && transport == "udp"
			if resp.Header.ID != q.Header.ID || resp.Header.RCode != tc.rcode || resp.Header.Truncated != tcWant {
				t.Errorf("%s: ID %d rcode %v TC %v, want %d %v %v", what, resp.Header.ID, resp.Header.RCode, resp.Header.Truncated, q.Header.ID, tc.rcode, tcWant)
			}
			if transport == "udp" && len(got) > 512 {
				t.Errorf("%s: %d bytes against an advertised 512", what, len(got))
			}
			wantOPT(t, what, resp)
		}
	}
}

// TestLargeEDNSReplyArrivesWhole: a reply of more than 4 KiB, within the
// 8 KiB the query advertises, reaches the caller through the exchanger's
// batched reader in one piece.
func TestLargeEDNSReplyArrivesWhole(t *testing.T) {
	h := NewHostingHandler(60)
	var addrs []netip.Addr
	for i := 0; i < 400; i++ {
		addrs = append(addrs, netip.AddrFrom4([4]byte{198, 51, byte(i / 250), byte(i%250 + 1)}))
	}
	h.Set("wide.example", addrs...)
	addr, stop := startServer(t, h)
	defer stop()
	ex := &resolver.UDPExchanger{Addr: addr, Timeout: 2 * time.Second, Retries: 2}
	defer ex.Close()
	q := dnsmsg.NewQuery(9, "wide.example", dnsmsg.TypeA)
	q.SetEDNS0(8192)
	resp, err := ex.Exchange(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	wire, _ := resp.Pack()
	if resp.Header.Truncated || len(resp.Answers) != len(addrs) || len(wire) <= 4<<10 {
		t.Fatalf("reply of %d bytes, TC %v, %d answers; want all %d", len(wire), resp.Header.Truncated, len(resp.Answers), len(addrs))
	}
	for i, r := range resp.Answers {
		if r.A != addrs[i] {
			t.Fatalf("answer %d is %v, want %v", i, r.A, addrs[i])
		}
	}
	wantOPT(t, "large reply", resp)
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
