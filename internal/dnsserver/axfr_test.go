package dnsserver

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"testing"
	"time"

	"darkdns/internal/dnsmsg"
	"darkdns/internal/registry"
	"darkdns/internal/simclock"
)

// axfr asks the server at addr for a transfer of zone over TCP and
// returns the reply's RCODE, failing unless the reply carries no record
// and the server then closes the connection.
func axfr(t *testing.T, addr, zone string) dnsmsg.RCode {
	t.Helper()
	conn, err := netDialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp := exchangeTCP(t, conn, zone, typeAXFR)
	if len(resp.Answers) != 0 {
		t.Errorf("AXFR of %s answered %d records", zone, len(resp.Answers))
	}
	if _, err := ioReadFull(conn, make([]byte, 1)); err != io.EOF {
		t.Errorf("AXFR of %s: the connection stayed open (%v)", zone, err)
	}
	return resp.Header.RCode
}

// exchangeTCP sends one query for (name, qtype) on conn and returns the
// reply: 2-byte length prefix framing each way.
func exchangeTCP(t *testing.T, conn net.Conn, name string, qtype dnsmsg.Type) *dnsmsg.Message {
	t.Helper()
	wire, err := dnsmsg.NewQuery(7, name, qtype).Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append([]byte{byte(len(wire) >> 8), byte(len(wire))}, wire...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	head := make([]byte, 2)
	if _, err := ioReadFull(conn, head); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, int(head[0])<<8|int(head[1]))
	if _, err := ioReadFull(conn, body); err != nil {
		t.Fatal(err)
	}
	resp, err := dnsmsg.Unpack(body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func newShopRegistry(t *testing.T, n int) *registry.Registry {
	t.Helper()
	clk := simclock.NewSim(t0)
	reg := registry.New(registry.DefaultConfig("shop"), clk, rand.New(rand.NewSource(1)))
	t.Cleanup(reg.Stop)
	for i := range n {
		reg.Register(fmt.Sprintf("d%04d.shop", i), "R",
			[]string{fmt.Sprintf("ns%d.cloudflare.com", i%3), "ns9.cloudflare.com"}, netip.Addr{})
	}
	clk.Advance(20 * time.Minute) // zone rebuild
	return reg
}

// TestAXFREndToEnd: over a real TCP connection a transfer of the zone the
// server is authoritative for is refused, while the same server answers
// that zone's NS queries over TCP.
func TestAXFREndToEnd(t *testing.T) {
	reg := newShopRegistry(t, 250)
	addr, stop := startServer(t, &TLDHandler{Registry: reg})
	defer stop()
	if rc := axfr(t, addr, "shop"); rc != dnsmsg.RCodeRefused {
		t.Fatalf("AXFR of the server's own zone: %s, want REFUSED", rc)
	}
	conn, err := netDialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp := exchangeTCP(t, conn, "d0007.shop", dnsmsg.TypeNS)
	if resp.Header.RCode != dnsmsg.RCodeNoError || len(resp.Authority)+len(resp.Answers) == 0 {
		t.Fatalf("NS query after the refused transfer: %+v", resp)
	}
}

func TestAXFRRefusedForForeignZone(t *testing.T) {
	addr, stop := startServer(t, &TLDHandler{Registry: newShopRegistry(t, 3)})
	defer stop()
	if rc := axfr(t, addr, "com"); rc != dnsmsg.RCodeRefused {
		t.Fatalf("foreign-zone AXFR: %s, want REFUSED", rc)
	}
}

func TestAXFRRefusedByNonTransferrer(t *testing.T) {
	addr, stop := startServer(t, NewHostingHandler(60))
	defer stop()
	if rc := axfr(t, addr, "anything.com"); rc != dnsmsg.RCodeRefused {
		t.Fatalf("AXFR from a hosting handler: %s, want REFUSED", rc)
	}
}

func TestAXFREmptyZone(t *testing.T) {
	addr, stop := startServer(t, &TLDHandler{Registry: newShopRegistry(t, 0)})
	defer stop()
	if rc := axfr(t, addr, "shop"); rc != dnsmsg.RCodeRefused {
		t.Fatalf("AXFR of an empty zone: %s, want REFUSED", rc)
	}
}
