package udpbatch

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"darkdns/internal/dnsmsg"
)

func listen(t *testing.T) *net.UDPConn {
	t.Helper()
	uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { uc.Close() })
	return uc
}

func dial(t *testing.T, to *net.UDPConn) *net.UDPConn {
	t.Helper()
	uc, err := net.DialUDP("udp", nil, to.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { uc.Close() })
	return uc
}

func addrOf(uc *net.UDPConn) netip.AddrPort { return uc.LocalAddr().(*net.UDPAddr).AddrPort() }

// paths runs f over uc wrapped both ways: batched where the platform has
// batch syscalls, and one datagram per call, the reference.
func paths(t *testing.T, f func(t *testing.T, wrap func(*net.UDPConn) *Conn)) {
	t.Run("batched", func(t *testing.T) {
		f(t, func(uc *net.UDPConn) *Conn {
			c, err := New(uc)
			if err != nil {
				t.Fatal(err)
			}
			return c
		})
	})
	t.Run("one-datagram", func(t *testing.T) {
		f(t, func(uc *net.UDPConn) *Conn { return &Conn{uc: uc} })
	})
}

// slots makes n receive slots of size bytes each.
func slots(n, size int) []Message {
	ms := make([]Message, n)
	buf := make([]byte, n*size)
	for i := range ms {
		ms[i].Buf = buf[i*size : (i+1)*size : (i+1)*size]
	}
	return ms
}

// TestReadBatchSourcesAndTruncation: every queued datagram comes back
// with its own source, and one longer than its slot is flagged Trunc
// with the slot holding its first bytes.
func TestReadBatchSourcesAndTruncation(t *testing.T) {
	paths(t, func(t *testing.T, wrap func(*net.UDPConn) *Conn) {
		srv := listen(t)
		c := wrap(srv)
		a, b := dial(t, srv), dial(t, srv)
		want := map[string]netip.AddrPort{}
		for i := 0; i < 5; i++ {
			for name, from := range map[string]*net.UDPConn{"a": a, "b": b} {
				d := fmt.Sprintf("%s%d", name, i)
				if _, err := from.Write([]byte(d)); err != nil {
					t.Fatal(err)
				}
				want[d] = addrOf(from)
			}
		}
		long := bytes.Repeat([]byte("x"), 3000)
		if _, err := a.Write(long); err != nil {
			t.Fatal(err)
		}
		ms := slots(16, 1024)
		total := len(want) + 1
		got, calls, truncs := 0, 0, 0
		for got < total {
			srv.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := c.ReadBatch(ms)
			if err != nil {
				t.Fatalf("after %d datagrams: %v", got, err)
			}
			calls++
			for _, m := range ms[:n] {
				got++
				if m.Trunc {
					truncs++
					if m.N != 1024 || !bytes.Equal(m.Buf[:m.N], long[:1024]) || m.Addr != addrOf(a) {
						t.Errorf("truncated datagram: %d bytes from %v", m.N, m.Addr)
					}
					continue
				}
				d := string(m.Buf[:m.N])
				if from, ok := want[d]; !ok || m.Addr != from {
					t.Errorf("datagram %q from %v, want from %v", d, m.Addr, from)
				}
				delete(want, d)
			}
		}
		if truncs != 1 || len(want) != 0 {
			t.Errorf("%d truncated, %v never read", truncs, want)
		}
		if c.batch != nil && calls == got {
			t.Errorf("the batched path took %d queued datagrams in %d calls", got, calls)
		}
	})
}

// TestWriteBatchAddressesEach: an unconnected socket's batch reaches each
// message's destination, and a connected one's reaches its peer.
func TestWriteBatchAddressesEach(t *testing.T) {
	paths(t, func(t *testing.T, wrap func(*net.UDPConn) *Conn) {
		srv := listen(t)
		a, b := dial(t, srv), dial(t, srv)
		ms := []Message{
			{Buf: []byte("to-a-0"), Addr: addrOf(a)},
			{Buf: []byte("to-b-0"), Addr: addrOf(b)},
			{Buf: []byte{}, Addr: addrOf(b)},
			{Buf: []byte("to-a-1"), Addr: addrOf(a)},
		}
		if n, err := wrap(srv).WriteBatch(ms); n != len(ms) || err != nil {
			t.Fatalf("WriteBatch: %d, %v", n, err)
		}
		for _, tc := range []struct {
			uc   *net.UDPConn
			want []string
		}{{a, []string{"to-a-0", "to-a-1"}}, {b, []string{"to-b-0", ""}}} {
			buf := make([]byte, 64)
			for _, w := range tc.want {
				tc.uc.SetReadDeadline(time.Now().Add(5 * time.Second))
				n, err := tc.uc.Read(buf)
				if err != nil || string(buf[:n]) != w {
					t.Errorf("read %q, %v; want %q", buf[:n], err, w)
				}
			}
		}
		if n, err := wrap(a).WriteBatch([]Message{{Buf: []byte("from-a")}}); n != 1 || err != nil {
			t.Fatalf("connected WriteBatch: %d, %v", n, err)
		}
		buf := make([]byte, 64)
		srv.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, from, err := srv.ReadFromUDPAddrPort(buf)
		if err != nil || string(buf[:n]) != "from-a" || from != addrOf(a) {
			t.Errorf("connected write arrived as %q from %v, %v", buf[:n], from, err)
		}
	})
}

// TestReadBatchEndsOnClose: closing the socket releases a blocked read
// with an error.
func TestReadBatchEndsOnClose(t *testing.T) {
	paths(t, func(t *testing.T, wrap func(*net.UDPConn) *Conn) {
		srv := listen(t)
		c := wrap(srv)
		done := make(chan error, 1)
		go func() {
			_, err := c.ReadBatch(slots(4, 64))
			done <- err
		}()
		// Give the read time to block; one that starts after Close fails
		// the same way.
		time.Sleep(10 * time.Millisecond)
		srv.Close()
		select {
		case err := <-done:
			if err == nil {
				t.Error("read on a closed socket succeeded")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("read still blocked after Close")
		}
	})
}

// respond is a DNS responder loop over c: each datagram that decodes as
// a query gets an answer naming it, sent back to its source in one batch
// per read. It returns when c's socket closes.
func respond(c *Conn) {
	in, out := slots(8, 512), make([]Message, 0, 8)
	for {
		n, err := c.ReadBatch(in)
		if err != nil {
			return
		}
		out = out[:0]
		for _, m := range in[:n] {
			q, err := dnsmsg.Unpack(m.Buf[:m.N])
			if m.Trunc || err != nil || q.Header.Response || len(q.Questions) != 1 {
				continue
			}
			r := q.Reply()
			r.Answers = []dnsmsg.Record{{Name: q.Questions[0].Name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, A: netip.AddrFrom4([4]byte{192, 0, 2, byte(m.N)})}}
			wire, err := r.Pack()
			if err != nil {
				continue
			}
			out = append(out, Message{Buf: wire, Addr: m.Addr})
		}
		for pending := out; len(pending) > 0; {
			sent, err := c.WriteBatch(pending)
			if err == nil {
				break
			}
			pending = pending[sent+1:]
		}
	}
}

// TestBatchedRepliesMatchOneDatagram: a responder over the batched path
// and one over the one-datagram path, fed the same traffic from three
// sockets — queries, garbage, responses and an over-long datagram
// interleaved — send each socket the same reply bytes.
func TestBatchedRepliesMatchOneDatagram(t *testing.T) {
	if c, err := New(listen(t)); err != nil || c.batch == nil {
		t.Skip("no batch syscalls on this platform")
	}
	traffic := func(client int) (dgrams [][]byte, queries int) {
		for i := 0; i < 12; i++ {
			q := dnsmsg.NewQuery(uint16(client*100+i), fmt.Sprintf("q%d.c%d.example", i, client), dnsmsg.TypeA)
			wire, _ := q.Pack()
			switch i % 4 {
			case 1:
				dgrams = append(dgrams, []byte{0xde, 0xad, byte(i)})
			case 2:
				r, _ := q.Reply().Pack()
				dgrams = append(dgrams, r)
			case 3:
				dgrams = append(dgrams, append(wire, make([]byte, 600)...))
			}
			dgrams = append(dgrams, wire)
			queries++
		}
		return dgrams, queries
	}
	run := func(wrap func(*net.UDPConn) *Conn) [][]string {
		srv := listen(t)
		c := wrap(srv)
		done := make(chan struct{})
		go func() { respond(c); close(done) }()
		defer func() { srv.Close(); <-done }()
		var got [][]string
		var clients []*net.UDPConn
		for i := 0; i < 3; i++ {
			clients = append(clients, dial(t, srv))
		}
		var want []int
		for i, uc := range clients {
			dgrams, n := traffic(i)
			for _, d := range dgrams {
				if _, err := uc.Write(d); err != nil {
					t.Fatal(err)
				}
			}
			want = append(want, n)
		}
		for i, uc := range clients {
			var replies []string
			buf := make([]byte, 1024)
			for len(replies) < want[i] {
				uc.SetReadDeadline(time.Now().Add(5 * time.Second))
				n, err := uc.Read(buf)
				if err != nil {
					t.Fatalf("client %d after %d replies: %v", i, len(replies), err)
				}
				r, err := dnsmsg.Unpack(buf[:n])
				if err != nil || !strings.HasSuffix(r.Questions[0].Name, fmt.Sprintf(".c%d.example", i)) {
					t.Fatalf("client %d got a reply to another source's query: %v, %v", i, r, err)
				}
				replies = append(replies, string(buf[:n]))
			}
			slices.Sort(replies)
			got = append(got, replies)
		}
		return got
	}
	batched := run(func(uc *net.UDPConn) *Conn { c, _ := New(uc); return c })
	single := run(func(uc *net.UDPConn) *Conn { return &Conn{uc: uc} })
	for i := range batched {
		if !slices.Equal(batched[i], single[i]) {
			t.Errorf("client %d: the batched path sent other reply bytes than the one-datagram path", i)
		}
	}
}

// TestBatchAllocations: once its arrays have grown, neither path
// allocates to read or write a batch.
func TestBatchAllocations(t *testing.T) {
	paths(t, func(t *testing.T, wrap func(*net.UDPConn) *Conn) {
		srv := listen(t)
		cli := dial(t, srv)
		s, c := wrap(srv), wrap(cli)
		out := make([]Message, 8)
		for i := range out {
			out[i].Buf = []byte(fmt.Sprintf("datagram-%d", i))
		}
		in := slots(8, 256)
		echo := make([]Message, 8)
		allocs := testing.AllocsPerRun(50, func() {
			if n, err := c.WriteBatch(out); n != len(out) || err != nil {
				t.Fatalf("client write: %d, %v", n, err)
			}
			for got := 0; got < len(out); {
				n, err := s.ReadBatch(in[got:])
				if err != nil {
					t.Fatal(err)
				}
				for i := got; i < got+n; i++ {
					echo[i] = Message{Buf: in[i].Buf[:in[i].N], Addr: in[i].Addr}
				}
				got += n
			}
			if n, err := s.WriteBatch(echo); n != len(echo) || err != nil {
				t.Fatalf("server write: %d, %v", n, err)
			}
			for got := 0; got < len(echo); {
				n, err := c.ReadBatch(in[got:])
				if err != nil {
					t.Fatal(err)
				}
				got += n
			}
		})
		if allocs != 0 {
			t.Errorf("%.1f allocations per round trip of 8 datagrams each way", allocs)
		}
	})
}
