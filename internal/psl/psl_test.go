package psl

import (
	"strings"
	"testing"
)

func TestPublicSuffixBasic(t *testing.T) {
	l := Default()
	cases := []struct{ name, want string }{
		{"example.com", "com"},
		{"www.example.com", "com"},
		{"example.co.uk", "co.uk"},
		{"www.example.co.uk", "co.uk"},
		{"example.xyz", "xyz"},
		{"com", "com"},
		{"co.uk", "co.uk"},
		{"unknown-tld-thing.zz", "zz"}, // implicit * rule
		{"myblog.blogspot.com", "blogspot.com"},
		{"deep.sub.myblog.blogspot.com", "blogspot.com"},
	}
	for _, c := range cases {
		if got := l.PublicSuffix(c.name); got != c.want {
			t.Errorf("PublicSuffix(%q) = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestWildcardAndException(t *testing.T) {
	l := Default()
	// *.ck makes foo.ck a public suffix…
	if got := l.PublicSuffix("bar.foo.ck"); got != "foo.ck" {
		t.Errorf("PublicSuffix(bar.foo.ck) = %q, want foo.ck", got)
	}
	// …but !www.ck overrides: www.ck is registrable under ck.
	if got := l.PublicSuffix("www.ck"); got != "ck" {
		t.Errorf("PublicSuffix(www.ck) = %q, want ck", got)
	}
	d, ok := l.RegisteredDomain("www.ck")
	if !ok || d != "www.ck" {
		t.Errorf("RegisteredDomain(www.ck) = %q,%v want www.ck,true", d, ok)
	}
	d, ok = l.RegisteredDomain("x.y.foo.ck")
	if !ok || d != "y.foo.ck" {
		t.Errorf("RegisteredDomain(x.y.foo.ck) = %q,%v want y.foo.ck,true", d, ok)
	}
}

func TestRegisteredDomain(t *testing.T) {
	l := Default()
	cases := []struct {
		name, want string
		ok         bool
	}{
		{"example.com", "example.com", true},
		{"www.example.com", "example.com", true},
		{"a.b.c.example.shop", "example.shop", true},
		{"example.co.uk", "example.co.uk", true},
		{"deep.example.co.uk", "example.co.uk", true},
		{"com", "", false},
		{"co.uk", "", false},
		{"", "", false},
		{"blogspot.com", "", false},
		{"myblog.blogspot.com", "myblog.blogspot.com", true},
		{"WWW.EXAMPLE.COM.", "example.com", true},
		{"..", "", false}, // an empty suffix: nothing registrable
		{"...", "", false},
		{"x.zz...", "", false},
	}
	for _, c := range cases {
		got, ok := l.RegisteredDomain(c.name)
		if got != c.want || ok != c.ok {
			t.Errorf("RegisteredDomain(%q) = %q,%v want %q,%v", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestIsPublicSuffix(t *testing.T) {
	l := Default()
	for _, s := range []string{"com", "co.uk", "blogspot.com", "foo.ck"} {
		if !l.IsPublicSuffix(s) {
			t.Errorf("IsPublicSuffix(%q) = false, want true", s)
		}
	}
	for _, s := range []string{"example.com", "www.ck", ""} {
		if l.IsPublicSuffix(s) {
			t.Errorf("IsPublicSuffix(%q) = true, want false", s)
		}
	}
}

func TestParseFileFormat(t *testing.T) {
	src := `// ===BEGIN ICANN DOMAINS===
com
// comment line

net
*.ck
!www.ck
co.uk   // trailing junk should be cut at whitespace
`
	l, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d, want 5", l.Len())
	}
	if got := l.PublicSuffix("x.co.uk"); got != "co.uk" {
		t.Errorf("PublicSuffix(x.co.uk) = %q", got)
	}
}

func TestParseRejectsEmptyRule(t *testing.T) {
	if _, err := Parse(strings.NewReader("!\n")); err == nil {
		t.Error("want error for bare exception rule")
	}
}

func TestLongestRuleWins(t *testing.T) {
	l, err := New("com", "example.com", "deep.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if got := l.PublicSuffix("x.deep.example.com"); got != "deep.example.com" {
		t.Errorf("longest match failed: %q", got)
	}
	d, ok := l.RegisteredDomain("x.deep.example.com")
	if !ok || d != "x.deep.example.com" {
		t.Errorf("RegisteredDomain = %q,%v", d, ok)
	}
}

func TestSLDExtractionMisclassification(t *testing.T) {
	// The paper (§4.1) attributes part of Figure 1's tail to SLD
	// misclassification. Simulate: a name under a suffix absent from the
	// list yields the wrong registered domain — callers must handle it.
	l, _ := New("com") // missing co.uk rules
	d, ok := l.RegisteredDomain("shop.example.co.uk")
	if !ok || d != "co.uk" {
		// With only the implicit * rule for uk, "co.uk" is extracted —
		// which is precisely the misclassification the paper observes.
		t.Errorf("expected misclassified co.uk, got %q,%v", d, ok)
	}
}

func BenchmarkRegisteredDomain(b *testing.B) {
	l := Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.RegisteredDomain("www.some-host.example.co.uk")
	}
}
