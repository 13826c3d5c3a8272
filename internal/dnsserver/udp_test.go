package dnsserver

import (
	"math/rand"
	"net"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"darkdns/internal/dnsmsg"
	"darkdns/internal/registry"
	"darkdns/internal/simclock"
)

// TestReadBatchMixedTraffic: one read of a loop takes garbage, a
// response, a NOTIMP query, a query whose answer outgrows its reply
// buffer and plain queries from two sockets together; every query gets
// exactly one reply, at its own source, and nothing else gets any.
func TestReadBatchMixedTraffic(t *testing.T) {
	gate, entered := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var many []dnsmsg.Record
	for i := 0; i < 100; i++ {
		many = append(many, dnsmsg.Record{Name: "big.example", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 60,
			A: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})})
	}
	h := HandlerFunc(func(q dnsmsg.Question) *dnsmsg.Message {
		if q.Name == "gate.example" {
			once.Do(func() { close(entered) })
			<-gate
		}
		resp := &dnsmsg.Message{Answers: many[:1]}
		if q.Name == "big.example" {
			resp.Answers = many
		}
		return resp
	})
	// One read loop, so the datagrams queued behind the gate query are
	// all taken by its next read.
	srv := New(h)
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	srv.wg.Add(1)
	go srv.serveUDP(pc)
	defer func() {
		pc.Close()
		srv.wg.Wait()
	}()
	dial := func() *net.UDPConn {
		c, err := net.DialUDP("udp", nil, pc.LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	send := func(c *net.UDPConn, wire []byte) {
		if _, err := c.Write(wire); err != nil {
			t.Fatal(err)
		}
	}
	query := func(id uint16, name string, edit func(*dnsmsg.Message)) []byte {
		q := dnsmsg.NewQuery(id, name, dnsmsg.TypeA)
		if edit != nil {
			edit(q)
		}
		wire, _ := q.Pack()
		return wire
	}
	g, a, b := dial(), dial(), dial()
	send(g, query(1, "gate.example", nil))
	<-entered

	type reply struct {
		id    uint16
		name  string
		rcode dnsmsg.RCode
		n     int
	}
	want := map[*net.UDPConn][]reply{
		g: {{1, "gate.example", dnsmsg.RCodeNoError, 1}},
		a: {{11, "a1.example", dnsmsg.RCodeNoError, 1}, {12, "a2.example", dnsmsg.RCodeNotImp, 0}, {13, "big.example", dnsmsg.RCodeNoError, len(many)}, {14, "a4.example", dnsmsg.RCodeNoError, 1}},
		b: {{21, "b1.example", dnsmsg.RCodeNoError, 1}, {22, "b2.example", dnsmsg.RCodeNoError, 1}},
	}
	response := query(99, "a1.example", func(m *dnsmsg.Message) { m.Header.Response = true })
	// The long answer's reply goes out of its buffer while the datagram
	// after it waits to be answered.
	send(a, query(11, "a1.example", nil))
	send(b, query(21, "b1.example", nil))
	send(a, query(13, "big.example", func(m *dnsmsg.Message) { m.SetEDNS0(4096) }))
	send(b, query(22, "b2.example", nil))
	send(a, []byte{0xde, 0xad})
	send(a, response)
	send(a, query(12, "a2.example", func(m *dnsmsg.Message) { m.Header.OpCode = 4 }))
	send(b, []byte("not dns at all, but longer than a header"))
	send(a, query(14, "a4.example", nil))
	close(gate)

	buf := make([]byte, 64<<10)
	for c, replies := range want {
		var got []reply
		for len(got) < len(replies) {
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, err := c.Read(buf)
			if err != nil {
				t.Fatalf("after %d replies: %v", len(got), err)
			}
			resp, err := dnsmsg.Unpack(buf[:n])
			if err != nil || !resp.Header.Response || len(resp.Questions) != 1 {
				t.Fatalf("undecodable reply: %v, %v", resp, err)
			}
			got = append(got, reply{resp.Header.ID, resp.Questions[0].Name, resp.Header.RCode, len(resp.Answers)})
		}
		slices.SortFunc(got, func(x, y reply) int { return int(x.id) - int(y.id) })
		if !slices.Equal(got, replies) {
			t.Errorf("replies %v, want %v", got, replies)
		}
		c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if n, err := c.Read(buf); err == nil {
			t.Errorf("an extra datagram of %d bytes", n)
		}
	}
}

// TestRespondAllocations: decoding a query into a loop's message,
// answering it from a TLD zone and packing the answer costs at most two
// allocations — the question's name and the handler's answer — for a
// delegation and for an NXDOMAIN alike.
func TestRespondAllocations(t *testing.T) {
	clk := simclock.NewSim(t0)
	reg := registry.New(registry.DefaultConfig("shop"), clk, rand.New(rand.NewSource(1)))
	defer reg.Stop()
	reg.Register("deleg.shop", "R", []string{"ns1.host01.net", "ns2.host01.net"}, netip.Addr{})
	clk.Advance(time.Hour)
	srv := New(&TLDHandler{Registry: reg})
	for name, want := range map[string]dnsmsg.RCode{"deleg.shop": dnsmsg.RCodeNoError, "absent.shop": dnsmsg.RCodeNXDomain} {
		wire, _ := dnsmsg.NewQuery(1, name, dnsmsg.TypeNS).Pack()
		var query dnsmsg.Message
		buf := make([]byte, 0, 512)
		var reply []byte
		allocs := testing.AllocsPerRun(200, func() {
			if err := dnsmsg.UnpackInto(wire, &query); err != nil {
				t.Fatal(err)
			}
			reply = srv.respond(&query, 512, buf[:0])
		})
		resp, err := dnsmsg.Unpack(reply)
		if err != nil || resp.Header.RCode != want {
			t.Fatalf("%s: %v, %v", name, resp, err)
		}
		if allocs > 2 {
			t.Errorf("%s: %.1f allocations from query bytes to reply bytes, want ≤ 2", name, allocs)
		}
	}
}
