package zoneset

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The tests hold StreamDiff to a map model of a zone: each delegated
// domain's sorted NS set, written out as a master file by writeZone.
type zone map[string][]string

func zoneOf(domains ...string) zone {
	z := make(zone)
	for _, d := range domains {
		z[d] = []string{"ns1.cloudflare.com", "ns2.cloudflare.com"}
	}
	return z
}

// writeZone writes z as tld's master file: the SOA, the apex NS, then
// each delegation's NS RRset in sorted owner order, as a registry's zone
// file lists them.
func writeZone(w io.Writer, tld string, serial uint32, z zone) {
	fmt.Fprintf(w, "$ORIGIN %s.\n@\t900\tIN\tSOA\ta.nic.%[1]s. hostmaster.nic.%[1]s. %d 1800 900 604800 86400\n", tld, serial)
	fmt.Fprintf(w, "@\t86400\tIN\tNS\ta.nic.%s.\n", tld)
	for _, d := range slices.Sorted(maps.Keys(z)) {
		for _, ns := range z[d] {
			fmt.Fprintf(w, "%s.\t3600\tIN\tNS\t%s.\n", d, ns)
		}
	}
}

// compareZones is the reference diff: every domain of both zones
// classified by a map lookup.
func compareZones(old, new zone) Diff {
	var d Diff
	for dom, ns := range new {
		if o, ok := old[dom]; !ok {
			d.Added = append(d.Added, dom)
		} else if !slices.Equal(o, ns) {
			d.Changed = append(d.Changed, dom)
		}
	}
	for dom := range old {
		if _, ok := new[dom]; !ok {
			d.Removed = append(d.Removed, dom)
		}
	}
	slices.Sort(d.Added)
	slices.Sort(d.Removed)
	slices.Sort(d.Changed)
	return d
}

// streamDiff runs StreamDiff over two zone files and collects its calls.
func streamDiff(t testing.TB, old, new, tld string) Diff {
	t.Helper()
	var got Diff
	err := StreamDiff(strings.NewReader(old), strings.NewReader(new), tld, func(k DiffKind, dom string) {
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
	return got
}

func zoneFile(tld string, serial uint32, z zone) string {
	var buf bytes.Buffer
	writeZone(&buf, tld, serial, z)
	return buf.String()
}

// TestStreamDiffClassifies: a domain only in the new zone is added, one
// only in the old removed, and one delegated to another NS set changed.
func TestStreamDiffClassifies(t *testing.T) {
	old := zoneOf("keep.com", "gone.com", "changed.com")
	new := zoneOf("keep.com", "fresh.com")
	new["changed.com"] = []string{"ns1.dns-parking.com"}
	d := streamDiff(t, zoneFile("com", 1, old), zoneFile("com", 2, new), "com")
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

// TestStreamDiffReorderedZoneIsNoChange: the same delegations under
// another serial, listed in another order, diff to nothing.
func TestStreamDiffReorderedZoneIsNoChange(t *testing.T) {
	d := streamDiff(t, zoneFile("com", 1, zoneOf("x.com", "y.com")), zoneFile("com", 2, zoneOf("y.com", "x.com")), "com")
	if len(d.Added)+len(d.Removed)+len(d.Changed) != 0 {
		t.Errorf("self-diff nonempty: %+v", d)
	}
}

// TestStreamDiffNSSetOrderAndCase: a delegation's NS set is read
// canonical and sorted, so the same set in another order or case is no
// change, and a shrunk one is.
func TestStreamDiffNSSetOrderAndCase(t *testing.T) {
	old := "$ORIGIN com.\nx 3600 IN NS ns2.b.net.\nx 3600 IN NS NS1.a.net.\n"
	new := "$ORIGIN com.\nx 3600 IN NS ns1.a.net.\nx 3600 IN NS ns2.b.net.\n"
	if d := streamDiff(t, old, new, "com"); len(d.Added)+len(d.Removed)+len(d.Changed) != 0 {
		t.Errorf("reordered NS set reported as a change: %+v", d)
	}
	if d := streamDiff(t, old, "$ORIGIN com.\nx 3600 IN NS ns1.a.net.\n", "com"); !slices.Equal(d.Changed, []string{"x.com"}) {
		t.Errorf("shrunk NS set: %+v", d)
	}
}

// TestStreamDiffReadsOnlyDelegations: a zone file with its SOA, apex NS
// and glue diffs against the empty zone as exactly its delegations.
func TestStreamDiffReadsOnlyDelegations(t *testing.T) {
	z := zone{
		"alpha.shop": {"ns1.cloudflare.com", "ns2.cloudflare.com"},
		"beta.shop":  {"ns1.beta.shop"},
		"gamma.shop": {"dns1.dns-parking.com"},
	}
	var buf bytes.Buffer
	writeZone(&buf, "shop", 42, z)
	buf.WriteString("ns1.beta.shop.\t3600\tIN\tA\t192.0.2.53\n") // glue
	d := streamDiff(t, zoneFile("shop", 0, zone{}), buf.String(), "shop")
	if !slices.Equal(d.Added, []string{"alpha.shop", "beta.shop", "gamma.shop"}) || len(d.Removed)+len(d.Changed) != 0 {
		t.Errorf("read back %+v", d)
	}
}

// TestStreamDiffIgnoresOutOfZone: an NS record whose owner is outside the
// zone's TLD is no delegation.
func TestStreamDiffIgnoresOutOfZone(t *testing.T) {
	src := `$ORIGIN com.
@ 900 IN SOA a.nic.com. host.nic.com. 7 1 1 1 1
@ 86400 IN NS a.nic.com.
example 3600 IN NS ns1.other.net.
stray.example.org. 3600 IN NS ns.org.
`
	d := streamDiff(t, "", src, "com")
	if !slices.Equal(d.Added, []string{"example.com"}) || len(d.Removed)+len(d.Changed) != 0 {
		t.Errorf("delegations: %+v", d)
	}
}

// TestStreamDiffMatchesMapModel: over two random 500-name zones,
// StreamDiff reports what compareZones finds from the map model.
func TestStreamDiffMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	old, new := make(zone), make(zone)
	for i := 0; i < 500; i++ {
		d := fmt.Sprintf("d%04d.top", i)
		ns := []string{fmt.Sprintf("ns%d.cloudflare.com", rng.Intn(3))}
		inOld, inNew := rng.Intn(3) != 0, rng.Intn(3) != 0
		if inOld {
			old[d] = ns
		}
		if inNew {
			ns2 := ns
			if rng.Intn(4) == 0 {
				ns2 = []string{"ns9.changed.net"}
			}
			new[d] = ns2
		}
	}
	want := compareZones(old, new)
	got := streamDiff(t, zoneFile("top", 1, old), zoneFile("top", 2, new), "top")
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
	full, empty := zoneFile("com", 1, zoneOf("a.com", "b.com")), zoneFile("com", 0, zone{})
	if d := streamDiff(t, empty, full, "com"); len(d.Added) != 2 {
		t.Errorf("added = %d, want 2", len(d.Added))
	}
	if d := streamDiff(t, full, empty, "com"); len(d.Removed) != 2 {
		t.Errorf("removed = %d, want 2", len(d.Removed))
	}
}

func TestDiffKindString(t *testing.T) {
	if DiffAdded.String() != "added" || DiffRemoved.String() != "removed" || DiffChanged.String() != "changed" || DiffKind(9).String() != "unknown" {
		t.Error("DiffKind strings")
	}
}

// bigZones returns two n-delegation zone files, the second missing
// about one delegation in a hundred.
func bigZones(n int) (old, new []byte) {
	rng := rand.New(rand.NewSource(11))
	o, nz := make(zone, n), make(zone, n)
	for i := 0; i < n; i++ {
		d := fmt.Sprintf("domain%07d.com", i)
		ns := []string{"ns1.cloudflare.com"}
		o[d] = ns
		if rng.Intn(100) != 0 {
			nz[d] = ns
		}
	}
	var bo, bn bytes.Buffer
	writeZone(&bo, "com", 1, o)
	writeZone(&bn, "com", 2, nz)
	return bo.Bytes(), bn.Bytes()
}

func BenchmarkStreamDiff(b *testing.B) {
	ob, nb := bigZones(100_000)
	b.SetBytes(int64(len(ob) + len(nb)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := StreamDiff(bytes.NewReader(ob), bytes.NewReader(nb), "com", func(DiffKind, string) { n++ }); err != nil {
			b.Fatal(err)
		}
	}
}
