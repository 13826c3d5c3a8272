//go:build linux && (amd64 || arm64)

package udpbatch

import (
	"encoding/binary"
	"net"
	"net/netip"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// mmsghdr is the kernel's struct mmsghdr: a message header and the byte
// count the call reports for that message.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// mmsgs is one direction's syscall arrays, grown to the largest batch
// seen and reused, and the progress of the call under way.
type mmsgs struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6 // room for either family's sockaddr
	count int                        // messages the call covers
	done  int                        // messages the kernel has filled or taken
	errno syscall.Errno
	fn    func(fd uintptr) bool // recv or send as the RawConn callback, bound once
}

// mmsgConn batches with recvmmsg and sendmmsg.
type mmsgConn struct {
	rc     syscall.RawConn
	v6     bool // the socket is AF_INET6
	rd, wr mmsgs
}

func newBatcher(uc *net.UDPConn) (batcher, error) {
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &mmsgConn{rc: rc}
	var sa syscall.Sockaddr
	var serr error
	if err := rc.Control(func(fd uintptr) { sa, serr = syscall.Getsockname(int(fd)) }); err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, os.NewSyscallError("getsockname", serr)
	}
	_, b.v6 = sa.(*syscall.SockaddrInet6)
	b.rd.fn, b.wr.fn = b.rd.recv, b.wr.send
	return b, nil
}

// prepare points one header and iovec at each message's buffer.
func (m *mmsgs) prepare(ms []Message) {
	if len(ms) > len(m.hdrs) {
		m.hdrs = make([]mmsghdr, len(ms))
		m.iovs = make([]syscall.Iovec, len(ms))
		m.names = make([]syscall.RawSockaddrInet6, len(ms))
	}
	for i := range ms {
		iov := &m.iovs[i]
		*iov = syscall.Iovec{}
		if buf := ms[i].Buf; len(buf) > 0 {
			iov.Base = &buf[0]
			iov.SetLen(len(buf))
		}
		m.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{Iov: iov, Iovlen: 1}}
	}
	m.count, m.done, m.errno = len(ms), 0, 0
}

func (b *mmsgConn) readBatch(ms []Message) (int, error) {
	m := &b.rd
	m.prepare(ms)
	for i := range ms {
		m.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&m.names[i]))
		m.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
	}
	if err := b.rc.Read(m.fn); err != nil {
		return 0, err
	}
	if m.errno != 0 {
		return 0, os.NewSyscallError("recvmmsg", m.errno)
	}
	for i := range ms[:m.done] {
		h := &m.hdrs[i]
		ms[i].N = int(h.n)
		ms[i].Trunc = h.hdr.Flags&syscall.MSG_TRUNC != 0
		ms[i].Addr = addrPort(&m.names[i])
	}
	return m.done, nil
}

// recv takes every queued datagram up to count; false asks the RawConn
// to wait until the socket is readable and call again.
func (m *mmsgs) recv(fd uintptr) bool {
	for {
		n, _, e := syscall.Syscall6(sysRecvmmsg, fd, uintptr(unsafe.Pointer(&m.hdrs[0])), uintptr(m.count), syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			m.done = int(n)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		m.errno = e
		return true
	}
}

func (b *mmsgConn) writeBatch(ms []Message) (int, error) {
	m := &b.wr
	m.prepare(ms)
	var addrErr error
	for i := range ms {
		if !ms[i].Addr.IsValid() {
			continue
		}
		n, err := b.sockaddr(&m.names[i], ms[i].Addr)
		if err != nil {
			m.count, addrErr = i, err // send those before it, then report it
			break
		}
		m.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&m.names[i]))
		m.hdrs[i].hdr.Namelen = n
	}
	if m.count > 0 {
		if err := b.rc.Write(m.fn); err != nil {
			return m.done, err
		}
	}
	if m.errno != 0 {
		return m.done, os.NewSyscallError("sendmmsg", m.errno)
	}
	return m.done, addrErr
}

// send hands the kernel every message from done on, calling again after
// a partial send; false asks the RawConn to wait until the socket is
// writable and call again.
func (m *mmsgs) send(fd uintptr) bool {
	for m.done < m.count {
		n, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&m.hdrs[m.done])), uintptr(m.count-m.done), 0, 0, 0)
		switch e {
		case 0:
			m.done += int(n)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			m.errno = e
			return true
		}
	}
	return true
}

// addrPort decodes the sockaddr the kernel wrote for a datagram's source.
func addrPort(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	port := binary.BigEndian.Uint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:])
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), port)
	case syscall.AF_INET6:
		a := netip.AddrFrom16(sa.Addr)
		if sa.Scope_id != 0 {
			a = a.WithZone(strconv.FormatUint(uint64(sa.Scope_id), 10))
		}
		return netip.AddrPortFrom(a, port)
	}
	return netip.AddrPort{}
}

// sockaddr encodes ap for this socket's family and returns its length:
// an IPv4 destination goes out v4-mapped on an AF_INET6 socket.
func (b *mmsgConn) sockaddr(sa *syscall.RawSockaddrInet6, ap netip.AddrPort) (uint32, error) {
	a := ap.Addr()
	if !b.v6 {
		if a = a.Unmap(); !a.Is4() {
			return 0, &net.AddrError{Err: "non-IPv4 address", Addr: a.String()}
		}
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: a.As4()}
		binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&sa4.Port))[:], ap.Port())
		return syscall.SizeofSockaddrInet4, nil
	}
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: a.As16()}
	binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:], ap.Port())
	if zone := a.Zone(); zone != "" {
		id, err := zoneIndex(zone)
		if err != nil {
			return 0, err
		}
		sa.Scope_id = id
	}
	return syscall.SizeofSockaddrInet6, nil
}

// zoneIndex is the interface index a zone names, by number or by name.
func zoneIndex(zone string) (uint32, error) {
	if id, err := strconv.ParseUint(zone, 10, 32); err == nil {
		return uint32(id), nil
	}
	ifi, err := net.InterfaceByName(zone)
	if err != nil {
		return 0, err
	}
	return uint32(ifi.Index), nil
}
