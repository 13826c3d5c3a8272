package zoneset

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"
)

var t0 = time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)

func snap(tld string, serial uint32, domains ...string) *Snapshot {
	s := NewSnapshot(tld, serial, t0)
	for _, d := range domains {
		s.Add(d, []string{"ns1.cloudflare.com", "ns2.cloudflare.com"})
	}
	return s
}

func TestAddContainsRemove(t *testing.T) {
	s := snap("com", 1, "Example.COM")
	if !s.Contains("example.com") || !s.Contains("EXAMPLE.com.") {
		t.Error("canonicalization on Contains failed")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	s.Remove("EXAMPLE.COM")
	if s.Contains("example.com") || s.Len() != 0 {
		t.Error("Remove failed")
	}
}

func TestDomainsSortedAndCached(t *testing.T) {
	s := snap("com", 1, "b.com", "a.com", "c.com")
	d := s.Domains()
	if !sort.StringsAreSorted(d) {
		t.Errorf("not sorted: %v", d)
	}
	s.Add("0.com", []string{"ns.x.net"})
	d2 := s.Domains()
	if len(d2) != 4 || d2[0] != "0.com" {
		t.Errorf("cache not invalidated: %v", d2)
	}
}

func TestNSSetsSortedOnAdd(t *testing.T) {
	s := NewSnapshot("com", 1, t0)
	s.Add("x.com", []string{"ns2.b.net", "NS1.a.net"})
	got := s.Get("x.com").NS
	if !reflect.DeepEqual(got, []string{"ns1.a.net", "ns2.b.net"}) {
		t.Errorf("NS = %v", got)
	}
}

func TestCompare(t *testing.T) {
	old := snap("com", 1, "keep.com", "gone.com", "changed.com")
	new := snap("com", 2, "keep.com", "fresh.com")
	new.Add("changed.com", []string{"ns1.dns-parking.com"})
	d := Compare(old, new)
	if !reflect.DeepEqual(d.Added, []string{"fresh.com"}) {
		t.Errorf("Added = %v", d.Added)
	}
	if !reflect.DeepEqual(d.Removed, []string{"gone.com"}) {
		t.Errorf("Removed = %v", d.Removed)
	}
	if !reflect.DeepEqual(d.Changed, []string{"changed.com"}) {
		t.Errorf("Changed = %v", d.Changed)
	}
}

func TestCompareIdentical(t *testing.T) {
	a := snap("com", 1, "x.com", "y.com")
	d := Compare(a, snap("com", 2, "y.com", "x.com"))
	if len(d.Added)+len(d.Removed)+len(d.Changed) != 0 {
		t.Errorf("self-diff nonempty: %+v", d)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := NewSnapshot("shop", 42, t0)
	s.Add("alpha.shop", []string{"ns1.cloudflare.com", "ns2.cloudflare.com"})
	s.Add("beta.shop", []string{"ns1.beta.shop"}, Glue{Name: "ns1.beta.shop", Addr: netip.MustParseAddr("192.0.2.53")})
	s.Add("gamma.shop", []string{"dns1.dns-parking.com"})

	var buf bytes.Buffer
	if err := s.WriteZone(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, "shop")
	if err != nil {
		t.Fatal(err)
	}
	if got.Serial != 42 {
		t.Errorf("serial = %d", got.Serial)
	}
	if got.Len() != 3 {
		t.Fatalf("len = %d, want 3", got.Len())
	}
	if !reflect.DeepEqual(got.Get("alpha.shop").NS, s.Get("alpha.shop").NS) {
		t.Errorf("alpha NS: %v", got.Get("alpha.shop").NS)
	}
	g := got.Get("beta.shop")
	if len(g.Glue) != 1 || g.Glue[0].Addr.String() != "192.0.2.53" {
		t.Errorf("glue: %+v", g.Glue)
	}
}

func TestReadIgnoresOutOfZone(t *testing.T) {
	src := `$ORIGIN com.
@ 900 IN SOA a.nic.com. host.nic.com. 7 1 1 1 1
@ 86400 IN NS a.nic.com.
example 3600 IN NS ns1.other.net.
stray.example.org. 3600 IN NS ns.org.
`
	s, err := Read(bytes.NewBufferString(src), "com")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || !s.Contains("example.com") {
		t.Errorf("delegations: %v", s.Domains())
	}
	if s.Serial != 7 {
		t.Errorf("serial = %d", s.Serial)
	}
}

func TestStreamDiffMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	old := NewSnapshot("top", 1, t0)
	new := NewSnapshot("top", 2, t0.Add(24*time.Hour))
	for i := 0; i < 500; i++ {
		d := fmt.Sprintf("d%04d.top", i)
		ns := []string{fmt.Sprintf("ns%d.cloudflare.com", rng.Intn(3))}
		inOld, inNew := rng.Intn(3) != 0, rng.Intn(3) != 0
		if inOld {
			old.Add(d, ns)
		}
		if inNew {
			ns2 := ns
			if rng.Intn(4) == 0 {
				ns2 = []string{"ns9.changed.net"}
			}
			new.Add(d, ns2)
		}
	}
	want := Compare(old, new)

	var bufOld, bufNew bytes.Buffer
	if err := old.WriteZone(&bufOld); err != nil {
		t.Fatal(err)
	}
	if err := new.WriteZone(&bufNew); err != nil {
		t.Fatal(err)
	}
	got := Diff{}
	err := StreamDiff(&bufOld, &bufNew, "top", func(k DiffKind, dom string) {
		switch k {
		case DiffAdded:
			got.Added = append(got.Added, dom)
		case DiffRemoved:
			got.Removed = append(got.Removed, dom)
		case DiffChanged:
			got.Changed = append(got.Changed, dom)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(want.Added)
	sort.Strings(want.Removed)
	sort.Strings(want.Changed)
	if !reflect.DeepEqual(got.Added, want.Added) {
		t.Errorf("Added mismatch:\n got %d %v\nwant %d %v", len(got.Added), head(got.Added), len(want.Added), head(want.Added))
	}
	if !reflect.DeepEqual(got.Removed, want.Removed) {
		t.Errorf("Removed mismatch: got %d want %d", len(got.Removed), len(want.Removed))
	}
	if !reflect.DeepEqual(got.Changed, want.Changed) {
		t.Errorf("Changed mismatch: got %d want %d", len(got.Changed), len(want.Changed))
	}
}

func head(s []string) []string {
	if len(s) > 5 {
		return s[:5]
	}
	return s
}

func TestStreamDiffEmptySides(t *testing.T) {
	s := snap("com", 1, "a.com", "b.com")
	var full, empty bytes.Buffer
	if err := s.WriteZone(&full); err != nil {
		t.Fatal(err)
	}
	NewSnapshot("com", 0, t0).WriteZone(&empty)

	added := 0
	if err := StreamDiff(&empty, &full, "com", func(k DiffKind, _ string) {
		if k == DiffAdded {
			added++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Errorf("added = %d, want 2", added)
	}
}

func TestDiffKindString(t *testing.T) {
	if DiffAdded.String() != "added" || DiffRemoved.String() != "removed" || DiffChanged.String() != "changed" || DiffKind(9).String() != "unknown" {
		t.Error("DiffKind strings")
	}
}

func buildBig(n int, mutate bool) (*Snapshot, *Snapshot) {
	rng := rand.New(rand.NewSource(11))
	old := NewSnapshot("com", 1, t0)
	new := NewSnapshot("com", 2, t0)
	for i := 0; i < n; i++ {
		d := fmt.Sprintf("domain%07d.com", i)
		ns := []string{"ns1.cloudflare.com"}
		old.Add(d, ns)
		if !mutate || rng.Intn(100) != 0 {
			new.Add(d, ns)
		}
	}
	return old, new
}

func BenchmarkCompareMaterialized(b *testing.B) {
	old, new := buildBig(100_000, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compare(old, new)
	}
}

func BenchmarkStreamDiff(b *testing.B) {
	old, new := buildBig(100_000, true)
	var bufOld, bufNew bytes.Buffer
	old.WriteZone(&bufOld)
	new.WriteZone(&bufNew)
	ob, nb := bufOld.Bytes(), bufNew.Bytes()
	b.SetBytes(int64(len(ob) + len(nb)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := StreamDiff(bytes.NewReader(ob), bytes.NewReader(nb), "com", func(DiffKind, string) { n++ }); err != nil {
			b.Fatal(err)
		}
	}
}
