package hosting

import (
	"math"
	"math/rand"
	"testing"

	"darkdns/internal/asdb"
	"darkdns/internal/dnsname"
)

func TestByName(t *testing.T) {
	p := ByName("Cloudflare")
	if p == nil || p.NSSuffix != "cloudflare.com" || p.ASN != 13335 {
		t.Fatalf("Cloudflare: %+v", p)
	}
	if ByName("Nonexistent") != nil {
		t.Error("unknown provider should be nil")
	}
}

func TestPickDNSTransientSharesConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200_000
	counts := make(map[string]int)
	for i := 0; i < n; i++ {
		counts[PickDNS(rng, true).Name]++
	}
	// Paper Table 4: Cloudflare 49.5 %, Hostinger 8.7 %.
	cf := float64(counts["Cloudflare"]) / n
	if math.Abs(cf-0.495) > 0.01 {
		t.Errorf("Cloudflare share = %.3f, want ≈0.495", cf)
	}
	hs := float64(counts["Hostinger"]) / n
	if math.Abs(hs-0.087) > 0.01 {
		t.Errorf("Hostinger share = %.3f, want ≈0.087", hs)
	}
}

func TestPickWebTransientSharesConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 200_000
	counts := make(map[string]int)
	for i := 0; i < n; i++ {
		counts[PickWeb(rng, true).Name]++
	}
	// Paper Table 5: Cloudflare 36.2 %, Hostinger 14.0 %, Amazon 7.6 %.
	for name, want := range map[string]float64{"Cloudflare": 0.362, "Hostinger": 0.140, "Amazon": 0.076} {
		got := float64(counts[name]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%s share = %.3f, want ≈%.3f", name, got, want)
		}
	}
}

func TestNormalSharesDifferFromTransient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 100_000
	tCount, nCount := 0, 0
	for i := 0; i < n; i++ {
		if PickDNS(rng, true).Name == "Cloudflare" {
			tCount++
		}
		if PickDNS(rng, false).Name == "Cloudflare" {
			nCount++
		}
	}
	if tCount <= nCount {
		t.Errorf("transient Cloudflare share (%d) should exceed normal (%d)", tCount, nCount)
	}
}

func TestNSNamesVaryByShard(t *testing.T) {
	p := ByName("Cloudflare")
	ns0 := p.NSNames(0)
	ns1 := p.NSNames(1)
	if len(ns0) != 2 || ns0[0] == ns1[0] {
		t.Errorf("NSNames: %v vs %v", ns0, ns1)
	}
	for _, ns := range ns0 {
		if want := "cloudflare.com"; len(ns) < len(want) || ns[len(ns)-len(want):] != want {
			t.Errorf("NS %q not under provider suffix", ns)
		}
	}
}

// TestNSNamesEveryShard: every shard, negative ones included, names a
// valid lowercase pair under the provider's suffix; shards equal modulo
// 13 share one prebuilt set (the same backing array); and shards 0..12
// keep the names ns1-a … ns2-m they have always had.
func TestNSNamesEveryShard(t *testing.T) {
	for _, p := range All() {
		for shard := -26; shard <= 26; shard++ {
			ns := p.NSNames(shard)
			if len(ns) != 2 {
				t.Fatalf("%s shard %d: %v", p.Name, shard, ns)
			}
			for _, name := range ns {
				if err := dnsname.Check(name); err != nil || name != dnsname.Canonical(name) {
					t.Errorf("%s shard %d: invalid name %q (%v)", p.Name, shard, name, err)
				}
			}
			k := ((shard % 13) + 13) % 13
			if base := p.NSNames(k); &ns[0] != &base[0] {
				t.Errorf("%s: shard %d does not share shard %d's set", p.Name, shard, k)
			}
			if shard == k {
				a := string(rune('a' + k))
				if want := []string{"ns1-" + a + "." + p.NSSuffix, "ns2-" + a + "." + p.NSSuffix}; ns[0] != want[0] || ns[1] != want[1] {
					t.Errorf("%s shard %d: %v, want %v", p.Name, shard, ns, want)
				}
			}
		}
	}
}

// TestNSSetIDs: every catalog set has an ID of its own, not 0, that gives
// back the very slice NSNames returns and its provider, for every shard,
// negative ones included; 0, an ID past the last set and a provider
// outside the catalog name no set.
func TestNSSetIDs(t *testing.T) {
	seen := make(map[NSSetID]bool)
	for i := range All() {
		p := &All()[i]
		for shard := -13; shard <= 25; shard++ {
			id, ns := p.NSSetID(shard), p.NSNames(shard)
			if got := id.Names(); id == 0 || len(got) != len(ns) || &got[0] != &ns[0] || id.Provider() != p {
				t.Fatalf("%s shard %d: ID %d names %v of %v, want %v of %s", p.Name, shard, id, got, id.Provider(), ns, p.Name)
			}
			if shard >= 0 && shard < 13 {
				if seen[id] {
					t.Fatalf("%s shard %d: ID %d already taken", p.Name, shard, id)
				}
				seen[id] = true
			}
		}
	}
	last := NSSetID(len(seen))
	for _, id := range []NSSetID{0, last + 1, math.MaxUint8} {
		if id.Names() != nil || id.Provider() != nil {
			t.Errorf("ID %d names %v of %v, want none", id, id.Names(), id.Provider())
		}
	}
	if id := (&Provider{Name: "Elsewhere", NSSuffix: "elsewhere.net"}).NSSetID(1); id != 0 {
		t.Errorf("a provider outside the catalog has set ID %d", id)
	}
}

func TestWebAddrInsidePoolAndResolvesToASN(t *testing.T) {
	db := asdb.Default()
	for _, p := range All() {
		for seed := uint64(0); seed < 50; seed++ {
			addr := p.WebAddr(seed)
			if !p.V4.Contains(addr) {
				t.Fatalf("%s WebAddr(%d) = %v outside %v", p.Name, seed, addr, p.V4)
			}
		}
		as, err := db.Lookup(p.WebAddr(7))
		if err != nil {
			t.Errorf("%s: ASN lookup failed: %v", p.Name, err)
			continue
		}
		if as.Number != p.ASN {
			// NS1 shares Amazon's pool by construction; allow that alias.
			if p.Name == "NS1" && as.Number == 16509 {
				continue
			}
			t.Errorf("%s: addr resolves to %v, catalog says AS%d", p.Name, as, p.ASN)
		}
	}
}

func TestWebAddrDeterministic(t *testing.T) {
	p := ByName("Hostinger")
	if p.WebAddr(42) != p.WebAddr(42) {
		t.Error("WebAddr not deterministic")
	}
	if p.WebAddr(1) == p.WebAddr(2) {
		t.Error("distinct seeds should usually differ")
	}
}

func BenchmarkPickDNS(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < b.N; i++ {
		PickDNS(rng, true)
	}
}
