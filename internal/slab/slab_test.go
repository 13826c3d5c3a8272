package slab

import (
	"math"
	"reflect"
	"runtime"
	"testing"
)

// record is a pointerful record of the size a ledger or watch record has.
type record struct {
	name string
	n    [20]int64
	next *record
}

// record256 is a 256-byte record with pointers.
type record256 struct {
	next *record256
	pad  [248]byte
}

// TestNewReturnsZeroedDistinctStableRecords draws records across several
// chunk boundaries, writes each, and then reads every one back through
// the pointer New returned: each came back zeroed, no two share storage,
// and a later chunk moved none of the earlier records.
func TestNewReturnsZeroedDistinctStableRecords(t *testing.T) {
	var s Of[record]
	n := 3*chunkLen[record]() + 5
	got := make([]*record, n)
	seen := make(map[*record]bool, n)
	for i := range got {
		p := s.New()
		if *p != (record{}) {
			t.Fatalf("record %d is not zeroed: %+v", i, *p)
		}
		if seen[p] {
			t.Fatalf("record %d was handed out before", i)
		}
		seen[p] = true
		p.n[0], p.n[19] = int64(i), -int64(i)
		if i > 0 {
			p.next = got[i-1]
		}
		got[i] = p
	}
	for i, p := range got {
		if p.n[0] != int64(i) || p.n[19] != -int64(i) || (i > 0 && p.next != got[i-1]) {
			t.Fatalf("record %d changed after later draws: %+v", i, *p)
		}
	}
}

// TestChunkWithinByteTarget: a chunk of any record size holds as many
// records as fit in chunkBytes beside the allocator's header — so it
// never exceeds the target unless one record alone does — and no fewer
// than the target affords.
func TestChunkWithinByteTarget(t *testing.T) {
	check := func(name string, size uintptr, n int) {
		t.Helper()
		bytes := uintptr(n)*size + allocHeader
		switch {
		case n < 1:
			t.Errorf("%s: %d records per chunk", name, n)
		case n > 1 && bytes > chunkBytes:
			t.Errorf("%s: chunk of %d × %d B and its header, %d B, exceeds %d B", name, n, size, bytes, chunkBytes)
		case bytes+size <= chunkBytes:
			t.Errorf("%s: chunk of %d × %d B leaves room for another record", name, n, size)
		}
	}
	check("byte", reflect.TypeFor[byte]().Size(), chunkLen[byte]())
	check("record", reflect.TypeFor[record]().Size(), chunkLen[record]())
	check("[2]string", reflect.TypeFor[[2]string]().Size(), chunkLen[[2]string]())
	check("[256]byte", reflect.TypeFor[[256]byte]().Size(), chunkLen[[256]byte]())
	check("[5000]byte", reflect.TypeFor[[5000]byte]().Size(), chunkLen[[5000]byte]())
	check("[40000]byte", reflect.TypeFor[[40000]byte]().Size(), chunkLen[[40000]byte]())

	var s Of[record]
	s.New()
	if got, want := cap(s.free)+1, chunkLen[record](); got != want {
		t.Errorf("the first chunk holds %d records, want %d", got, want)
	}

	// What the allocator charges for a chunk of pointerful 256 B records
	// — a power of two that divides 16 KiB, so only the header could push
	// the chunk into the next size class — stays within the target. The
	// fewest bytes of three chunks count: a MemStats delta also counts
	// what the runtime allocates meanwhile.
	least := uint64(math.MaxUint64)
	for range 3 {
		var big Of[record256]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		big.New()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > chunkBytes {
		t.Errorf("a chunk of 256 B records costs %d B, want at most %d", least, chunkBytes)
	}
}

// TestNewAllocatesOncePerChunk: drawing a chunk's worth of records costs
// one allocation, so a record costs 1/chunkLen of one.
func TestNewAllocatesOncePerChunk(t *testing.T) {
	var s Of[record]
	per := chunkLen[record]()
	if per < 2 {
		t.Fatalf("a chunk holds %d records", per)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for range per {
			s.New()
		}
	}); allocs > 1 {
		t.Errorf("%d draws allocate %v times, want ≤ 1", per, allocs)
	}
}
