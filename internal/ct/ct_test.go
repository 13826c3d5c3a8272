package ct

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

// rootAt is the root of l's first n entries, read through the catch-up
// STH and the proofs hash the tree with.
func rootAt(l *Log, n int64) (Hash, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hashed().root(n)
}

func buildLog(n int) *Log {
	l := NewLog("test-log", []byte("k"))
	for i := 0; i < n; i++ {
		l.Append(t0.Add(time.Duration(i)*time.Second), PreCertificate, "TestCA",
			fmt.Sprintf("d%04d.example.com", i), nil, t0)
	}
	return l
}

func TestAppendAssignsDenseIndexes(t *testing.T) {
	l := buildLog(10)
	if l.Size() != 10 {
		t.Fatalf("size = %d", l.Size())
	}
	for i := int64(0); i < 10; i++ {
		e, err := l.Entry(i)
		if err != nil || e.Index != i {
			t.Errorf("entry %d: %+v, %v", i, e, err)
		}
	}
	if _, err := l.Entry(10); err == nil {
		t.Error("out-of-range Entry should fail")
	}
}

func TestRange(t *testing.T) {
	l := buildLog(10)
	es, err := l.Range(3, 7)
	if err != nil || len(es) != 4 || es[0].Index != 3 {
		t.Errorf("Range: %v %v", es, err)
	}
	if _, err := l.Range(7, 3); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := l.Range(0, 99); err == nil {
		t.Error("over-long range should fail")
	}
}

func TestSubscribersSeeEntries(t *testing.T) {
	l := NewLog("x", nil)
	var got []string
	l.Subscribe(func(e Entry) { got = append(got, e.CN) })
	l.Append(t0, PreCertificate, "CA", "a.com", []string{"www.a.com"}, t0)
	l.Append(t0, FinalCertificate, "CA", "b.com", nil, t0)
	if len(got) != 2 || got[0] != "a.com" {
		t.Errorf("subscriber calls: %v", got)
	}
}

func TestNamesDeduplicates(t *testing.T) {
	e := Entry{CN: "a.com", SANs: []string{"a.com", "www.a.com", "", "www.a.com"}}
	names := e.Names()
	if len(names) != 2 || names[0] != "a.com" || names[1] != "www.a.com" {
		t.Errorf("Names = %v", names)
	}
}

func TestSTHSignAndVerify(t *testing.T) {
	l := buildLog(5)
	sth, err := l.STH(t0)
	if err != nil {
		t.Fatal(err)
	}
	if sth.TreeSize != 5 {
		t.Errorf("tree size = %d", sth.TreeSize)
	}
	if !l.VerifySTH(sth) {
		t.Error("own STH failed verification")
	}
	tampered := sth
	tampered.TreeSize = 6
	if l.VerifySTH(tampered) {
		t.Error("tampered STH verified")
	}
	other := NewLog("other", []byte("different"))
	if other.VerifySTH(sth) {
		t.Error("foreign log verified our STH")
	}
}

func TestInclusionProofsAllSizes(t *testing.T) {
	const n = 33 // crosses several power-of-two boundaries
	l := buildLog(n)
	for size := int64(1); size <= n; size++ {
		root, err := rootAt(l, size)
		if err != nil {
			t.Fatal(err)
		}
		for idx := int64(0); idx < size; idx++ {
			proof, err := l.InclusionProof(idx, size)
			if err != nil {
				t.Fatalf("proof(%d,%d): %v", idx, size, err)
			}
			leaf, err := l.LeafHashAt(idx)
			if err != nil {
				t.Fatal(err)
			}
			if !VerifyInclusion(leaf, proof, root) {
				t.Fatalf("inclusion(%d,%d) failed to verify", idx, size)
			}
		}
	}
}

func TestInclusionProofRejectsWrongLeaf(t *testing.T) {
	l := buildLog(16)
	root, _ := rootAt(l, 16)
	proof, _ := l.InclusionProof(3, 16)
	wrong, _ := l.LeafHashAt(4)
	if VerifyInclusion(wrong, proof, root) {
		t.Error("wrong leaf verified")
	}
	right, _ := l.LeafHashAt(3)
	badRoot := root
	badRoot[0] ^= 0xFF
	if VerifyInclusion(right, proof, badRoot) {
		t.Error("wrong root verified")
	}
}

func TestInclusionProofOutOfRange(t *testing.T) {
	l := buildLog(4)
	if _, err := l.InclusionProof(4, 4); err == nil {
		t.Error("index == size should fail")
	}
	if _, err := l.InclusionProof(0, 5); err == nil {
		t.Error("size beyond tree should fail")
	}
}

func TestConsistencyProofsAllPairs(t *testing.T) {
	const n = 33
	l := buildLog(n)
	for m := int64(0); m <= n; m++ {
		for k := m; k <= n; k++ {
			first, err := rootAt(l, m)
			if err != nil {
				t.Fatal(err)
			}
			second, err := rootAt(l, k)
			if err != nil {
				t.Fatal(err)
			}
			proof, err := l.ConsistencyProof(m, k)
			if err != nil {
				t.Fatalf("consistency(%d,%d): %v", m, k, err)
			}
			if !VerifyConsistency(first, second, proof) {
				t.Fatalf("consistency(%d,%d) failed to verify", m, k)
			}
		}
	}
}

func TestConsistencyRejectsForgery(t *testing.T) {
	l := buildLog(20)
	first, _ := rootAt(l, 7)
	second, _ := rootAt(l, 20)
	proof, _ := l.ConsistencyProof(7, 20)
	bad := first
	bad[5] ^= 1
	if VerifyConsistency(bad, second, proof) {
		t.Error("forged first root verified")
	}
	if VerifyConsistency(first, bad, proof) {
		t.Error("forged second root verified")
	}
}

func TestTreeRootDeterministic(t *testing.T) {
	a := buildLog(17)
	b := buildLog(17)
	ra, _ := rootAt(a, 17)
	rb, _ := rootAt(b, 17)
	if ra != rb {
		t.Error("identical logs disagree on root")
	}
}

func TestPropertyInclusionHolds(t *testing.T) {
	l := buildLog(64)
	f := func(idxRaw, sizeRaw uint8) bool {
		size := int64(sizeRaw)%64 + 1
		idx := int64(idxRaw) % size
		proof, err := l.InclusionProof(idx, size)
		if err != nil {
			return false
		}
		root, err := rootAt(l, size)
		if err != nil {
			return false
		}
		leaf, err := l.LeafHashAt(idx)
		if err != nil {
			return false
		}
		return VerifyInclusion(leaf, proof, root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestLazyTreeMatchesEager holds the tree Append no longer hashes to one
// that hashed every leaf on arrival: tree heads, inclusion proofs and
// consistency proofs read at random points between appends — so each
// read catches up a different number of entries — equal the eager tree's.
func TestLazyTreeMatchesEager(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLog("lazy", []byte("k"))
		var eager merkleTree
		for i := 0; i < 70; i++ {
			e := l.Append(t0.Add(time.Duration(i)*time.Second), EntryKind(rng.Intn(2)), "CA",
				fmt.Sprintf("d%d.example.com", i), []string{fmt.Sprintf("www.d%d.example.com", i)}, t0)
			eager.append(LeafHash(e.leafData()))
			if rng.Intn(4) != 0 {
				continue
			}
			size := eager.size()
			sth, err := l.STH(t0)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := eager.root(size); sth.TreeSize != size || sth.Root != want {
				t.Fatalf("seed %d: STH at %d entries = (%d, %x), eager (%d, %x)", seed, size, sth.TreeSize, sth.Root, size, want)
			}
			n := rng.Int63n(size) + 1
			idx := rng.Int63n(n)
			got, err := l.InclusionProof(idx, n)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := eager.inclusionProof(idx, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: inclusion(%d, %d) = %v, eager %v", seed, idx, n, got, want)
			}
			m := rng.Int63n(n + 1)
			cgot, err := l.ConsistencyProof(m, n)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := eager.consistencyProof(m, n); !reflect.DeepEqual(cgot, want) {
				t.Fatalf("seed %d: consistency(%d, %d) = %v, eager %v", seed, m, n, cgot, want)
			}
		}
	}
}

// TestAppendAllocations bounds what logging one entry costs: the copy of
// its SANs, and nothing for hashing or for telling a subscriber.
func TestAppendAllocations(t *testing.T) {
	l := NewLog("allocs", nil)
	var seen int64
	l.Subscribe(func(e Entry) { seen = e.Index })
	sans := []string{"www.example.com"}
	allocs := testing.AllocsPerRun(1000, func() {
		l.Append(t0, PreCertificate, "CA", "example.com", sans, t0)
	})
	if allocs > 1 {
		t.Errorf("Append allocates %v objects per entry, want at most 1", allocs)
	}
	if seen == 0 {
		t.Error("subscriber never called")
	}
}

func BenchmarkAppend(b *testing.B) {
	l := NewLog("bench", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Append(t0, PreCertificate, "CA", "example.com", nil, t0)
	}
}

func BenchmarkInclusionProof1e4(b *testing.B) {
	l := buildLog(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.InclusionProof(int64(i%10_000), 10_000); err != nil {
			b.Fatal(err)
		}
	}
}
