package rdap

import (
	"maps"
	"sync"
	"sync/atomic"
)

// cowMap is a copy-on-write string-keyed map: lock-free reads through an
// atomic.Pointer snapshot, mutex-serialized clone-and-swap writes, for
// the Mux routing table. The zero value is an empty map, ready to use.
type cowMap[V any] struct {
	mu sync.Mutex // serializes writers' clone-and-swap
	m  atomic.Pointer[map[string]V]
}

// snapshot returns the current immutable generation (nil when empty).
func (c *cowMap[V]) snapshot() map[string]V {
	if p := c.m.Load(); p != nil {
		return *p
	}
	return nil
}

// get looks k up in the current generation. Lock-free.
func (c *cowMap[V]) get(k string) (V, bool) {
	v, ok := c.snapshot()[k]
	return v, ok
}

// set installs k→v in a new generation. In-flight readers keep the
// previous one until their operation completes.
func (c *cowMap[V]) set(k string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := maps.Clone(c.snapshot())
	if next == nil {
		next = map[string]V{}
	}
	next[k] = v
	c.m.Store(&next)
}
