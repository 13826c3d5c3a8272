package workpool

import (
	"bytes"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// goid returns the calling goroutine's ID, parsed from the first line of
// its stack trace ("goroutine 18 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestRunCallsEveryIndexOnce: every index in [0, n) is called exactly
// once, at every width, including widths above n and n = 0.
func TestRunCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{0, 1, 3, 64} {
			calls := make([]atomic.Int32, n)
			Run(n, workers, func(i int) { calls[i].Add(1) })
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: index %d called %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestRunSerialOnCaller: with workers ≤ 1, or n ≤ 1, Run is a plain loop
// — indices in order, every call on the caller's goroutine — which is what
// makes width 1 of a stage its serial form.
func TestRunSerialOnCaller(t *testing.T) {
	caller := goid()
	for _, c := range []struct{ n, workers int }{{7, 0}, {7, 1}, {1000, 1}, {1, 3}, {1, 64}, {0, 64}} {
		var order []int
		Run(c.n, c.workers, func(i int) {
			if g := goid(); g != caller {
				t.Errorf("n=%d workers=%d: index %d ran on goroutine %d, caller is %d", c.n, c.workers, i, g, caller)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("n=%d workers=%d: call %d was index %d", c.n, c.workers, i, got)
			}
		}
		if len(order) != c.n {
			t.Errorf("n=%d workers=%d: %d calls", c.n, c.workers, len(order))
		}
	}
}

// TestAtomicMaxConcurrent: eight goroutines raising one counter through
// interleaved values leave it at the largest.
func TestAtomicMaxConcurrent(t *testing.T) {
	const goroutines, each = 8, 1000
	var m atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				AtomicMax(&m, int64(i*goroutines+g))
			}
		}(g)
	}
	wg.Wait()
	if got, want := m.Load(), int64(goroutines*each-1); got != want {
		t.Fatalf("AtomicMax ended at %d, want %d", got, want)
	}
	AtomicMax(&m, 3) // a lower value never lowers it
	if got := m.Load(); got != goroutines*each-1 {
		t.Fatalf("a lower value moved the maximum to %d", got)
	}
}

// TestAllEnginesSetsOnlyReadFields: AllEngines(w) sets exactly the widths
// some stage reads — the world builder's compile fan-out — and leaves
// every compile-shim field at zero, so the engines-on configuration
// names no setting that does nothing.
func TestAllEnginesSetsOnlyReadFields(t *testing.T) {
	read := map[string]bool{"BuildWorkers": true}
	e := reflect.ValueOf(AllEngines(3))
	for i := 0; i < e.NumField(); i++ {
		name := e.Type().Field(i).Name
		want := 0
		if read[name] {
			want = 3
		}
		if got := int(e.Field(i).Int()); got != want {
			t.Errorf("AllEngines(3).%s = %d, want %d", name, got, want)
		}
	}
	if AllEngines(0) != (Engines{}) {
		t.Errorf("AllEngines(0) = %+v, want the zero value", AllEngines(0))
	}
}
