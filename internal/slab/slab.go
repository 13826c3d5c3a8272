// Package slab hands out records of one type carved from chunks, so a
// store that keeps a record per name pays one allocation per chunk, not
// one per record.
//
// A chunk is sized by bytes, not by count: it holds as many records as
// fit in 16 KiB, so a chunk of small records and a chunk of large ones
// cost the allocator the same size class, and the unused tail of an
// owner's newest chunk is bounded whatever the record's size.
//
// What it costs: the garbage collector frees a chunk only when none of
// its records is reachable, so one live record pins its whole chunk.
// Draw from a slab only records that live as long as their owner — a
// ledger's records, a fleet's watch states — or that die together, like
// answers each read once and dropped. A store that retires records one by
// one while others of the same chunk live on must not use one.
//
// An Of has no lock: its owner calls New under the lock it already holds
// for the store the record joins.
package slab

import "reflect"

// chunkBytes is the byte size a chunk is cut to: 16 KiB, a size class of
// its own, so the allocator rounds a chunk up by less than one record.
// Records fill it but for one word: the allocator puts an 8-byte header
// before an object that holds pointers and is larger than 512 B, and a
// chunk of exactly 16 KiB with its header would take the 18 KiB class.
const (
	chunkBytes  = 16 << 10
	allocHeader = 8
)

// Of carves records of type T from chunks. The zero Of is ready to use.
type Of[T any] struct {
	free []T // the newest chunk's records not handed out yet
}

// New returns a pointer to a zeroed T that no other call returned. The
// record stays where it is for as long as it is reachable.
func (s *Of[T]) New() *T {
	if len(s.free) == 0 {
		s.free = make([]T, chunkLen[T]())
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// chunkLen is how many records of type T one chunk holds: as many as fit
// in chunkBytes beside the allocator's header, and at least one.
func chunkLen[T any]() int {
	size := reflect.TypeFor[T]().Size()
	if size == 0 || size > chunkBytes-allocHeader {
		return 1
	}
	return int((chunkBytes - allocHeader) / size)
}
