// Package hosting catalogs DNS- and web-hosting providers with the market
// shares the DarkDNS evaluation observed for transient domains (Tables 4
// and 5), and provides weighted deterministic sampling for the world
// simulator.
package hosting

import (
	"math/rand"
	"net/netip"
)

// Provider is a combined DNS/web hosting operator.
type Provider struct {
	Name     string
	NSSuffix string       // SLD of authoritative nameservers, e.g. "cloudflare.com"
	ASN      uint32       // origin AS of web hosting addresses
	V4       netip.Prefix // address pool for A records

	ns   *[nsShards][]string // prebuilt NSNames sets; nil outside the catalog
	set0 NSSetID             // the ID of ns[0]; 0 outside the catalog
}

// Catalog of providers seen in the paper's Tables 4 and 5 plus a long tail.
// The V4 prefixes match internal/asdb.Default so measured A records resolve
// back to the right ASN.
var catalog = []Provider{
	{Name: "Cloudflare", NSSuffix: "cloudflare.com", ASN: 13335, V4: netip.MustParsePrefix("104.16.0.0/13")},
	{Name: "Hostinger", NSSuffix: "dns-parking.com", ASN: 47583, V4: netip.MustParsePrefix("145.14.144.0/20")},
	{Name: "NS1", NSSuffix: "nsone.net", ASN: 16509, V4: netip.MustParsePrefix("52.0.0.0/11")},
	{Name: "Squarespace", NSSuffix: "squarespacedns.com", ASN: 53831, V4: netip.MustParsePrefix("198.185.159.0/24")},
	{Name: "GoDaddy", NSSuffix: "domaincontrol.com", ASN: 26496, V4: netip.MustParsePrefix("166.62.0.0/16")},
	{Name: "Namecheap", NSSuffix: "registrar-servers.com", ASN: 22612, V4: netip.MustParsePrefix("162.255.116.0/22")},
	{Name: "Amazon", NSSuffix: "awsdns.org", ASN: 16509, V4: netip.MustParsePrefix("54.144.0.0/12")},
	{Name: "Google", NSSuffix: "googledomains.com", ASN: 15169, V4: netip.MustParsePrefix("74.125.0.0/16")},
	{Name: "Automattic", NSSuffix: "wordpress.com", ASN: 2635, V4: netip.MustParsePrefix("192.0.78.0/23")},
	{Name: "Fastly", NSSuffix: "fastly.net", ASN: 54113, V4: netip.MustParsePrefix("185.199.108.0/22")},
}

func init() {
	for i := range catalog {
		sets := new([nsShards][]string)
		catalog[i].set0 = NSSetID(len(nsSetsByID))
		for shard := range sets {
			sets[shard] = nsSet(catalog[i].NSSuffix, shard)
			nsSetsByID = append(nsSetsByID, &catalog[i])
		}
		catalog[i].ns = sets
	}
}

// NSSetID numbers the catalog's prebuilt nameserver sets from 1, so the
// set a registration delegates to can be kept and stored as a number. ID 0
// is no set.
type NSSetID uint8

// nsSetsByID holds the provider of each set by its ID; index 0 is no set.
// A provider's sets have consecutive IDs from its set0, in shard order.
var nsSetsByID = []*Provider{nil}

// Names returns the set id numbers, the slice NSNames returns for it: nil
// for 0 or a number no set has.
func (id NSSetID) Names() []string {
	p := id.Provider()
	if p == nil {
		return nil
	}
	return p.NSNames(int(id - p.set0))
}

// Provider returns the provider whose set id numbers: nil for 0 or a
// number no set has.
func (id NSSetID) Provider() *Provider {
	if int(id) >= len(nsSetsByID) {
		return nil
	}
	return nsSetsByID[id]
}

// ByName returns the provider with the given name, or nil.
func ByName(name string) *Provider {
	for i := range catalog {
		if catalog[i].Name == name {
			return &catalog[i]
		}
	}
	return nil
}

// All returns the full catalog (callers must not mutate).
func All() []Provider { return catalog }

// weighted is a cumulative-weight sampler over provider indices.
type weighted struct {
	cum  []float64
	idxs []int
}

func newWeighted(shares map[string]float64) weighted {
	var w weighted
	total := 0.0
	for i := range catalog {
		s, ok := shares[catalog[i].Name]
		if !ok {
			continue
		}
		total += s
		w.cum = append(w.cum, total)
		w.idxs = append(w.idxs, i)
	}
	// Normalize so the last cum is 1.0.
	for i := range w.cum {
		w.cum[i] /= total
	}
	return w
}

func (w weighted) pick(rng *rand.Rand) *Provider {
	x := rng.Float64()
	for i, c := range w.cum {
		if x <= c {
			return &catalog[w.idxs[i]]
		}
	}
	return &catalog[w.idxs[len(w.idxs)-1]]
}

// Paper Table 4 (DNS hosting of transient domains) and Table 5 (web
// hosting). "Others" probability is spread over the tail providers.
var (
	transientDNSShares = map[string]float64{
		"Cloudflare":  0.495,
		"Hostinger":   0.087,
		"NS1":         0.069,
		"Squarespace": 0.069,
		"GoDaddy":     0.055,
		// Others 22.5 %:
		"Namecheap": 0.075, "Amazon": 0.06, "Google": 0.04, "Automattic": 0.03, "Fastly": 0.02,
	}
	transientWebShares = map[string]float64{
		"Cloudflare":  0.362,
		"Hostinger":   0.140,
		"Amazon":      0.076,
		"Squarespace": 0.053,
		"Namecheap":   0.039,
		// Others 33.1 %:
		"GoDaddy": 0.11, "NS1": 0.08, "Google": 0.07, "Automattic": 0.04, "Fastly": 0.03,
	}
	// Long-lived (non-transient) registrations skew less towards
	// Cloudflare/parking; shares loosely follow overall market structure.
	normalDNSShares = map[string]float64{
		"Cloudflare": 0.30, "GoDaddy": 0.16, "Namecheap": 0.10, "Google": 0.08,
		"Amazon": 0.10, "Squarespace": 0.07, "Hostinger": 0.06, "NS1": 0.05,
		"Automattic": 0.05, "Fastly": 0.03,
	}
	normalWebShares = map[string]float64{
		"Cloudflare": 0.22, "Amazon": 0.18, "GoDaddy": 0.14, "Google": 0.10,
		"Hostinger": 0.08, "Squarespace": 0.08, "Namecheap": 0.07,
		"Automattic": 0.06, "NS1": 0.04, "Fastly": 0.03,
	}

	transientDNSPicker = newWeighted(transientDNSShares)
	transientWebPicker = newWeighted(transientWebShares)
	normalDNSPicker    = newWeighted(normalDNSShares)
	normalWebPicker    = newWeighted(normalWebShares)
)

// PickDNS samples a DNS-hosting provider. transient selects the Table 4
// distribution, otherwise the long-lived-domain distribution.
func PickDNS(rng *rand.Rand, transient bool) *Provider {
	if transient {
		return transientDNSPicker.pick(rng)
	}
	return normalDNSPicker.pick(rng)
}

// PickWeb samples a web-hosting provider per Table 5 (transient) or the
// long-lived distribution.
func PickWeb(rng *rand.Rand, transient bool) *Provider {
	if transient {
		return transientWebPicker.pick(rng)
	}
	return normalWebPicker.pick(rng)
}

// nsShards is the number of distinct nameserver pairs a provider's fleet
// offers its customers.
const nsShards = 13

// NSNames returns the pair of authoritative nameserver hostnames a
// customer of p delegates to, varied by shard to emulate provider fleets
// (ns1-a.cloudflare.com / ns2-a.cloudflare.com, …, ns1-m / ns2-m).
// Shards equal modulo 13 name the same pair, negative ones included. A
// catalog provider returns one of 13 prebuilt sets, shared by every
// customer on that shard: the slice is read-only, and a caller that keeps
// or edits a set copies it first.
func (p *Provider) NSNames(shard int) []string {
	shard %= nsShards
	if shard < 0 {
		shard += nsShards
	}
	if p.ns != nil {
		return p.ns[shard]
	}
	return nsSet(p.NSSuffix, shard)
}

// NSSetID returns the ID of the set NSNames(shard) returns, 0 for a
// provider outside the catalog.
func (p *Provider) NSSetID(shard int) NSSetID {
	if p.ns == nil {
		return 0
	}
	return p.set0 + NSSetID(((shard%nsShards)+nsShards)%nsShards)
}

// nsSet builds the nameserver pair of one shard in 0..12.
func nsSet(suffix string, shard int) []string {
	a := string(rune('a' + shard))
	return []string{"ns1-" + a + "." + suffix, "ns2-" + a + "." + suffix}
}

// WebAddr deterministically derives a customer web address inside p's pool.
func (p *Provider) WebAddr(seed uint64) netip.Addr {
	base := p.V4.Addr().As4()
	hostBits := 32 - p.V4.Bits()
	if hostBits > 16 {
		hostBits = 16 // stay inside small pools
	}
	off := uint32(seed) % (1<<uint(hostBits) - 2)
	off++ // avoid the network address
	v := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
	v += off
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}
