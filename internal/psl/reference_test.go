package psl

import (
	"math/rand"
	"strings"
	"testing"

	"darkdns/internal/dnsname"
)

// The rule walk as it stood before PublicSuffix and RegisteredDomain
// stopped allocating: every suffix rebuilt from dnsname.Labels by
// concatenation. Kept verbatim as the oracle the tests below hold the
// substring walk to.

func (l *List) refPublicSuffix(name string) string {
	name = dnsname.Canonical(name)
	if name == "" {
		return ""
	}
	labels := dnsname.Labels(name)
	best := labels[len(labels)-1] // implicit * rule
	bestLabels := 1
	suffix := ""
	for i := len(labels) - 1; i >= 0; i-- {
		if suffix == "" {
			suffix = labels[i]
		} else {
			suffix = labels[i] + "." + suffix
		}
		n := len(labels) - i
		kind, ok := l.rules[suffix]
		if !ok {
			continue
		}
		if kind&ruleException != 0 {
			return dnsname.Parent(suffix)
		}
		if kind&ruleNormal != 0 && n > bestLabels {
			best, bestLabels = suffix, n
		}
		if kind&ruleWildcard != 0 && i > 0 {
			wild := labels[i-1] + "." + suffix
			if k2 := l.rules[wild]; k2&ruleException == 0 {
				if n+1 > bestLabels {
					best, bestLabels = wild, n+1
				}
			}
		}
	}
	return best
}

func (l *List) refRegisteredDomain(name string) (string, bool) {
	name = dnsname.Canonical(name)
	ps := l.refPublicSuffix(name)
	if name == ps || name == "" {
		return "", false
	}
	rest := strings.TrimSuffix(name, "."+ps)
	if rest == name {
		return "", false
	}
	if i := strings.LastIndexByte(rest, '.'); i >= 0 {
		rest = rest[i+1:]
	}
	return rest + "." + ps, true
}

// referenceLists are the lists the differential tests walk: the embedded
// one, and one whose rules nest wildcards, exceptions and normal rules on
// the same names (a wildcard under a normal rule, an exception under a
// wildcard that is itself a normal rule, a wildcard and an exception on
// one name).
func referenceLists(t testing.TB) []*List {
	nested, err := New("com", "*.com", "a.com", "*.a.com", "!b.a.com", "b.a.com",
		"*.ck", "!www.ck", "www.ck", "*.b.ck", "!x.b.ck", "uk", "co.uk", "*.sch.uk", "!p.sch.uk",
		"*.x", "!x", "!y.x")
	if err != nil {
		t.Fatal(err)
	}
	return []*List{Default(), nested}
}

// refLabels are the labels random names are built from: rule names of
// both lists, their case variants, and hosts no rule names.
var refLabels = []string{"com", "COM", "a", "b", "x", "y", "p", "ck", "www", "WWW", "uk", "co", "sch",
	"blogspot", "github", "io", "example", "shop", "nl", "ne", "jp", "bd", "er", "zz", "host-1", "_srv", "*"}

// randomName joins 1–6 labels, sometimes with an empty label, a leading
// dot or one or two trailing dots.
func randomName(rng *rand.Rand) string {
	parts := make([]string, 1+rng.Intn(6))
	for i := range parts {
		if rng.Intn(20) == 0 {
			continue // empty label
		}
		parts[i] = refLabels[rng.Intn(len(refLabels))]
	}
	name := strings.Join(parts, ".")
	switch rng.Intn(10) {
	case 0:
		name = "." + name
	case 1:
		name += "."
	case 2:
		name += ".."
	}
	return name
}

func TestSuffixWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, l := range referenceLists(t) {
		for i := 0; i < 100_000; i++ {
			name := randomName(rng)
			// A canonical name that still ends in a dot after Labels trims
			// one more keeps an empty last label: the reference folds it
			// into the label before (it reads the suffix "com." as "com")
			// or, for ".", indexes an empty label list and panics. The
			// substring walk copies neither.
			if c := dnsname.Canonical(name); c == "." || strings.HasSuffix(c, "..") {
				continue
			}
			if got, want := l.PublicSuffix(name), l.refPublicSuffix(name); got != want {
				t.Fatalf("PublicSuffix(%q) = %q, reference %q", name, got, want)
			}
			got, ok := l.RegisteredDomain(name)
			want, wantOK := l.refRegisteredDomain(name)
			if l.PublicSuffix(name) == "" {
				// Nothing is registrable under an empty suffix, where the
				// reference built a domain from an empty label.
				want, wantOK = "", false
			}
			if got != want || ok != wantOK {
				t.Fatalf("RegisteredDomain(%q) = %q,%v, reference %q,%v", name, got, ok, want, wantOK)
			}
		}
	}
}

// TestRegisteredDomainAllocatesNothing pins the ingest path's PSL step at
// zero allocations, for a multi-level suffix, a wildcard, an exception
// and an unknown TLD alike.
func TestRegisteredDomainAllocatesNothing(t *testing.T) {
	l := Default()
	for _, name := range []string{"www.some-host.example.co.uk", "a.b.foo.ck", "www.ck", "x.y.unknown-tld", "fresh.com"} {
		if allocs := testing.AllocsPerRun(100, func() { l.RegisteredDomain(name) }); allocs != 0 {
			t.Errorf("RegisteredDomain(%q) allocates %v times, want 0", name, allocs)
		}
	}
}
