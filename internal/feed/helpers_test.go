package feed

import (
	"net"
	"reflect"

	"darkdns/internal/stream"
)

func dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// logPage is the encoded log's page size.
const logPage = stream.PageSize

// logPages counts the pages log holds, the reserved ones included.
func logPages(log *stream.Log[wireEntry]) int {
	return reflect.ValueOf(log).Elem().FieldByName("pages").Len()
}
