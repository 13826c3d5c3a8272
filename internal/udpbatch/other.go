//go:build !(linux && (amd64 || arm64))

package udpbatch

import "net"

// newBatcher reports that this platform has no batch syscalls: every
// batch moves one datagram per call.
func newBatcher(*net.UDPConn) (batcher, error) { return nil, nil }
