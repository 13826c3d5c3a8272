package udpbatch

// The syscall package has no SYS_SENDMMSG on amd64.
const (
	sysRecvmmsg = 299
	sysSendmmsg = 307
)
