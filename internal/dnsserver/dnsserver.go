// Package dnsserver is an authoritative DNS server framework serving the
// simulated registries' zones over real UDP and TCP transports. The
// measurement integration tests exercise the full wire path: resolver →
// UDP socket → server → registry zone data.
//
// UDP is served by a fixed set of read loops on the one socket, one per
// processor the runtime schedules on (GOMAXPROCS). Each loop owns a
// datagram buffer and a response buffer and does read → decode → Handle
// → encode → write itself, so a query costs no goroutine, no datagram
// copy and no response buffer. Back-pressure is the kernel's: while every
// loop is inside a handler, further datagrams wait in the socket's
// receive buffer and overflow is dropped there, as a flood would be at
// any real server; the process's goroutine count and memory do not grow
// with the offered load. A handler that blocks holds its loop, so one
// that waits for another query to be handled can stall the server. TCP
// keeps a goroutine per connection.
package dnsserver

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"darkdns/internal/dnsmsg"
)

// Handler produces a response for one question. Implementations must be
// safe for concurrent use.
type Handler interface {
	Handle(q dnsmsg.Question) *dnsmsg.Message
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(q dnsmsg.Question) *dnsmsg.Message

// Handle implements Handler.
func (f HandlerFunc) Handle(q dnsmsg.Question) *dnsmsg.Message { return f(q) }

// Server serves DNS over UDP and TCP.
type Server struct {
	handler Handler

	mu     sync.Mutex
	pc     *net.UDPConn
	ln     net.Listener
	closed bool
	wg     sync.WaitGroup
}

// New creates a server dispatching to handler.
func New(handler Handler) *Server {
	return &Server{handler: handler}
}

// ListenAndServe binds UDP and TCP on addr (e.g. "127.0.0.1:0") and serves
// until Close. It returns the bound UDP address; TCP listens on the same
// port, also when addr left the choice of port to the kernel.
func (s *Server) ListenAndServe(addr string) (net.Addr, error) {
	pc, ln, err := listenPair(addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.pc, s.ln = pc, ln
	s.mu.Unlock()
	loops := runtime.GOMAXPROCS(0)
	s.wg.Add(loops + 1)
	for i := 0; i < loops; i++ {
		go s.serveUDP(pc)
	}
	go s.serveTCP(ln)
	return pc.LocalAddr(), nil
}

// listenPair binds UDP and TCP on one port. When addr leaves the port to
// the kernel it picks a free UDP port, whose number may be taken on the
// TCP side; both are then released and the pick repeated.
func listenPair(addr string) (*net.UDPConn, net.Listener, error) {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, nil, err
	}
	for attempt := 1; ; attempt++ {
		pc, err := net.ListenUDP("udp", uaddr)
		if err != nil {
			return nil, nil, err
		}
		ln, err := net.Listen("tcp", pc.LocalAddr().String())
		if err == nil {
			return pc, ln, nil
		}
		pc.Close()
		if uaddr.Port != 0 || attempt == 10 || !errors.Is(err, syscall.EADDRINUSE) {
			return nil, nil, err
		}
	}
}

// Close stops both listeners and waits for the serve loops to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	pc, ln := s.pc, s.ln
	s.mu.Unlock()
	var err error
	if pc != nil {
		err = errors.Join(err, pc.Close())
	}
	if ln != nil {
		err = errors.Join(err, ln.Close())
	}
	s.wg.Wait()
	return err
}

// serveUDP is one read loop: it answers each datagram it reads before
// reading the next, out of buffers it owns.
func (s *Server) serveUDP(pc *net.UDPConn) {
	defer s.wg.Done()
	in := make([]byte, 64<<10)
	out := make([]byte, 0, 512)
	for {
		n, raddr, err := pc.ReadFromUDPAddrPort(in)
		if err != nil {
			return
		}
		if resp := s.respond(in[:n], 512, out[:0]); resp != nil {
			pc.WriteToUDPAddrPort(resp, raddr)
			out = resp // keeps the capacity a large answer grew
		}
	}
}

func (s *Server) serveTCP(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go s.serveTCPConn(conn)
	}
}

func (s *Server) serveTCPConn(conn net.Conn) {
	defer conn.Close()
	out := make([]byte, 2, 2+512) // length prefix, then the response
	for {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		var lenBuf [2]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		msgLen := binary.BigEndian.Uint16(lenBuf[:])
		pkt := make([]byte, msgLen)
		if _, err := io.ReadFull(conn, pkt); err != nil {
			return
		}
		// Zone transfers stream multiple messages and own the connection.
		if query, err := dnsmsg.Unpack(pkt); err == nil &&
			len(query.Questions) == 1 && query.Questions[0].Type == TypeAXFR {
			if s.handleAXFR(conn, query) {
				return
			}
			refused := query.Reply()
			refused.Header.RCode = dnsmsg.RCodeRefused
			if wire, err := refused.Pack(); err == nil {
				out := make([]byte, 2+len(wire))
				binary.BigEndian.PutUint16(out, uint16(len(wire)))
				copy(out[2:], wire)
				conn.Write(out)
			}
			return
		}
		resp := s.respond(pkt, 0xFFFF, out[:2])
		if resp == nil {
			return
		}
		out = resp
		binary.BigEndian.PutUint16(out, uint16(len(out)-2))
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// respond decodes a query, dispatches it and appends the encoded reply to
// buf, truncating responses larger than maxSize per RFC 1035 §4.2.1. An
// EDNS0 OPT record in the query raises the UDP limit to the advertised
// payload size (RFC 6891). It returns nil when there is nothing to send.
func (s *Server) respond(pkt []byte, maxSize int, buf []byte) []byte {
	query, err := dnsmsg.Unpack(pkt)
	if err != nil || query.Header.Response || len(query.Questions) == 0 {
		return nil // drop garbage silently like real servers do
	}
	if maxSize == 512 {
		if size, ok := query.EDNSSize(); ok && int(size) > maxSize {
			maxSize = int(size)
		}
	}
	var resp *dnsmsg.Message
	if query.Header.OpCode != 0 {
		resp = query.Reply()
		resp.Header.RCode = dnsmsg.RCodeNotImp
	} else {
		resp = s.handler.Handle(query.Questions[0])
		if resp == nil {
			resp = query.Reply()
			resp.Header.RCode = dnsmsg.RCodeServFail
		} else {
			// Mirror query identity even if the handler built a fresh
			// message.
			resp.Header.ID = query.Header.ID
			resp.Header.Response = true
			if len(resp.Questions) == 0 {
				resp.Questions = query.Questions
			}
		}
	}
	wire, err := resp.AppendPack(buf)
	if err != nil {
		fail := query.Reply()
		fail.Header.RCode = dnsmsg.RCodeServFail
		wire, err = fail.AppendPack(buf)
		if err != nil {
			return nil
		}
	}
	if len(wire)-len(buf) > maxSize {
		trunc := query.Reply()
		trunc.Header.Truncated = true
		wire, err = trunc.AppendPack(buf)
		if err != nil {
			return nil
		}
	}
	return wire
}
