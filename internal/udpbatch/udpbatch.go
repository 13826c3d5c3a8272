// Package udpbatch reads and writes batches of datagrams on one UDP
// socket. On linux/amd64 and linux/arm64 a batch is one recvmmsg or
// sendmmsg call over reusable message-header arrays, so a loop that
// drains a busy socket pays one syscall and one wakeup for all the
// datagrams queued on it, not one of each per datagram; elsewhere each
// call moves one datagram through the net package. Neither path
// allocates once its buffers have reached the largest batch seen.
package udpbatch

import (
	"net"
	"net/netip"
)

// Message is one datagram of a batch.
type Message struct {
	// Buf is the datagram to send, or the slot one is received into: its
	// length is the most a read takes.
	Buf []byte
	// N is how many bytes a read put into Buf.
	N int
	// Addr is the source of a received datagram, and the destination of
	// one to send; the zero AddrPort sends to a connected socket's peer.
	// On the batched path a link-local source carries its zone as the
	// interface index in decimal.
	Addr netip.AddrPort
	// Trunc reports that a received datagram was longer than Buf, which
	// holds only its first N bytes.
	Trunc bool
}

// maxDatagram bounds every UDP payload, over IPv4 or IPv6.
const maxDatagram = 65535

// Conn batches the datagrams of one UDP socket. ReadBatch and WriteBatch
// may run at the same time on different goroutines, but neither may run
// concurrently with itself. Closing the socket ends both with an error.
type Conn struct {
	uc    *net.UDPConn
	batch batcher // nil where the platform has no batch syscalls
	spill []byte  // the one-datagram read's buffer, room for any datagram
}

// batcher is a platform's batch syscalls on one socket.
type batcher interface {
	readBatch(ms []Message) (int, error)
	writeBatch(ms []Message) (int, error)
}

// New wraps uc. It fails only when uc cannot expose its descriptor.
func New(uc *net.UDPConn) (*Conn, error) {
	b, err := newBatcher(uc)
	if err != nil {
		return nil, err
	}
	return &Conn{uc: uc, batch: b}, nil
}

// ReadBatch blocks until a datagram arrives, then fills ms in order with
// it and every further datagram already queued, and returns how many it
// filled (one per call where the platform has no batch syscalls). Each
// filled Message gets N, Addr and Trunc; Buf is left as the slot.
func (c *Conn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	if c.batch == nil {
		return c.readOne(ms)
	}
	return c.batch.readBatch(ms)
}

// WriteBatch sends every Buf in ms, each to its Addr, in order. It
// returns how many were sent; when that is fewer than len(ms) the error
// says why the next one was not.
func (c *Conn) WriteBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	if c.batch == nil {
		return c.writeEach(ms)
	}
	return c.batch.writeBatch(ms)
}

// readOne is ReadBatch one datagram at a time. It receives into a buffer
// that holds any datagram and copies into the slot, so a datagram longer
// than the slot is seen to be, on every platform.
func (c *Conn) readOne(ms []Message) (int, error) {
	if c.spill == nil {
		c.spill = make([]byte, maxDatagram)
	}
	n, addr, err := c.uc.ReadFromUDPAddrPort(c.spill)
	if err != nil {
		return 0, err
	}
	m := &ms[0]
	m.N = copy(m.Buf, c.spill[:n])
	m.Addr, m.Trunc = addr, n > len(m.Buf)
	return 1, nil
}

// writeEach is WriteBatch one datagram at a time.
func (c *Conn) writeEach(ms []Message) (int, error) {
	for i := range ms {
		var err error
		if ms[i].Addr.IsValid() {
			_, err = c.uc.WriteToUDPAddrPort(ms[i].Buf, ms[i].Addr)
		} else {
			_, err = c.uc.Write(ms[i].Buf)
		}
		if err != nil {
			return i, err
		}
	}
	return len(ms), nil
}
