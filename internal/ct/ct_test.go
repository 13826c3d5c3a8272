package ct

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

var t0 = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

// TestAppendAssignsDenseIndexes collects a log's entries the way its
// readers do, through Subscribe, and checks each got the next index.
func TestAppendAssignsDenseIndexes(t *testing.T) {
	l := NewLog("test-log")
	var seen []Entry
	l.Subscribe(func(e Entry) { seen = append(seen, e) })
	for i := 0; i < 10; i++ {
		e := l.Append(t0.Add(time.Duration(i)*time.Second), PreCertificate, "TestCA",
			fmt.Sprintf("d%04d.example.com", i), nil, t0)
		if e.Index != int64(i) {
			t.Errorf("Append %d returned index %d", i, e.Index)
		}
	}
	if len(seen) != 10 {
		t.Fatalf("subscriber saw %d entries, want 10", len(seen))
	}
	for i, e := range seen {
		if e.Index != int64(i) || !e.Logged.Equal(t0.Add(time.Duration(i)*time.Second)) {
			t.Errorf("entry %d: %+v", i, e)
		}
	}
}

func TestSubscribersSeeEntries(t *testing.T) {
	l := NewLog("x")
	var got []Entry
	l.Subscribe(func(e Entry) { got = append(got, e) })
	sans := []string{"www.a.com"}
	l.Append(t0, PreCertificate, "CA", "a.com", sans, t0)
	l.Append(t0, FinalCertificate, "CA", "b.com", nil, t0)
	if len(got) != 2 || got[0].CN != "a.com" || got[1].Kind != FinalCertificate {
		t.Fatalf("subscriber calls: %+v", got)
	}
	// A subscriber keeps the entry, so it must not share the caller's
	// SANs array.
	sans[0] = "changed.a.com"
	if got[0].SANs[0] != "www.a.com" {
		t.Errorf("kept entry's SANs follow the caller's slice: %q", got[0].SANs)
	}
}

func TestNamesDeduplicates(t *testing.T) {
	e := Entry{CN: "a.com", SANs: []string{"a.com", "www.a.com", "", "www.a.com"}}
	names := slices.Collect(e.EachName)
	if len(names) != 2 || names[0] != "a.com" || names[1] != "www.a.com" {
		t.Errorf("EachName yields %v", names)
	}
}

// refNames is the entry's names as Entry.Names built them before
// EachName replaced it: a set-deduplicated slice.
// TestEachNameMatchesSetReference holds EachName to it.
func refNames(e *Entry) []string {
	seen := make(map[string]bool, 1+len(e.SANs))
	var out []string
	add := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	add(e.CN)
	for _, s := range e.SANs {
		add(s)
	}
	return out
}

// TestEachNameMatchesSetReference draws entries from a five-name pool
// (empty included) so CNs repeat in SANs, SANs repeat each other and
// names are empty, and checks EachName's order against the set-based
// reference, a loop that stops early, and that ranging allocates nothing.
func TestEachNameMatchesSetReference(t *testing.T) {
	pool := []string{"", "a.com", "www.a.com", "b.com", "A.COM"}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		e := Entry{CN: pool[rng.Intn(len(pool))]}
		for j := rng.Intn(6); j > 0; j-- {
			e.SANs = append(e.SANs, pool[rng.Intn(len(pool))])
		}
		want := refNames(&e)
		if got := slices.Collect(e.EachName); !slices.Equal(got, want) {
			t.Fatalf("%+v: EachName yields %q, reference %q", e, got, want)
		}
		var first []string
		for n := range e.EachName {
			first = append(first, n)
			break
		}
		if len(want) > 0 && !slices.Equal(first, want[:1]) || len(want) == 0 && first != nil {
			t.Fatalf("%+v: a loop that stops after one name saw %q", e, first)
		}
	}
	e := Entry{CN: "a.com", SANs: []string{"www.a.com", "a.com", "b.com"}}
	n := 0
	if allocs := testing.AllocsPerRun(100, func() {
		for range e.EachName {
			n++
		}
	}); allocs != 0 {
		t.Errorf("ranging over EachName allocates %v times, want 0", allocs)
	}
}

// TestAppendAllocations bounds what logging one entry costs: the copy of
// its SANs, and nothing for storing it or for telling a subscriber.
func TestAppendAllocations(t *testing.T) {
	l := NewLog("allocs")
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
	l := NewLog("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Append(t0, PreCertificate, "CA", "example.com", nil, t0)
	}
}
