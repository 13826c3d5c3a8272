// Package psl implements Public Suffix List rule evaluation for extracting
// registered (pay-level) domains, as used by DarkDNS step 1 to map
// certificate SAN entries onto registrable domains.
//
// The rule semantics follow publicsuffix.org: the longest matching rule
// wins, exception rules ("!") override wildcard rules ("*"), and a name
// equal to a public suffix has no registered domain.
package psl

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"darkdns/internal/dnsname"
)

// List is a compiled set of public-suffix rules. It is immutable after
// construction and safe for concurrent use.type
type List struct {
	// rules maps a canonical rule name (without "*."/"!") to its kind.
	rules map[string]ruleKind
}

type ruleKind uint8

const (
	ruleNormal ruleKind = 1 << iota
	ruleWildcard
	ruleException
)

// Parse reads rules in the publicsuffix.org file format: one rule per line,
// "//" comments and blank lines ignored.
func Parse(r io.Reader) (*List, error) {
	l := &List{rules: make(map[string]ruleKind)}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		// The PSL file stops rules at the first whitespace.
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			line = line[:i]
		}
		if err := l.add(line); err != nil {
			return nil, fmt.Errorf("psl: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("psl: %w", err)
	}
	return l, nil
}

// New compiles a list from individual rule strings (e.g. "com", "*.ck",
// "!www.ck"). It is the programmatic construction path used by tests and
// the simulator.
func New(rules ...string) (*List, error) {
	l := &List{rules: make(map[string]ruleKind)}
	for _, r := range rules {
		if err := l.add(r); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *List) add(rule string) error {
	kind := ruleNormal
	switch {
	case strings.HasPrefix(rule, "!"):
		kind = ruleException
		rule = rule[1:]
	case strings.HasPrefix(rule, "*."):
		kind = ruleWildcard
		rule = rule[2:]
	}
	rule = dnsname.Canonical(rule)
	if rule == "" {
		return fmt.Errorf("empty rule")
	}
	l.rules[rule] |= kind
	return nil
}

// Len returns the number of distinct rule names.
func (l *List) Len() int { return len(l.rules) }

// PublicSuffix returns the public suffix of name per the list rules.
// Unknown TLDs fall back to the implicit "*" rule (the last label).
// Every suffix it tries, and the one it returns, is a substring of the
// canonical name, so it allocates nothing.
func (l *List) PublicSuffix(name string) string {
	// Labels are what lies between the dots of the canonical name less
	// one more trailing dot, as dnsname.Labels splits it.
	name = strings.TrimSuffix(dnsname.Canonical(name), ".")
	if name == "" {
		return ""
	}
	// Walk suffixes from the TLD leftward, tracking the longest match.
	// start is where the current suffix begins: just after a dot.
	start := strings.LastIndexByte(name, '.') + 1
	best := name[start:] // implicit * rule
	bestLabels := 1
	for n := 1; ; n++ {
		suffix := name[start:]
		// next is where the label to the suffix's left begins; with none
		// left (start 0), the wildcard below has no label to take.
		next := -1
		if start > 0 {
			next = strings.LastIndexByte(name[:start-1], '.') + 1
		}
		if kind, ok := l.rules[suffix]; ok {
			if kind&ruleException != 0 {
				// Exception: the suffix is one label shorter than the rule.
				return dnsname.Parent(suffix)
			}
			if kind&ruleNormal != 0 && n > bestLabels {
				best, bestLabels = suffix, n
			}
			if kind&ruleWildcard != 0 && next >= 0 && n+1 > bestLabels {
				// "*.suffix": one more label is part of the suffix. An
				// exception rule naming that exact domain needs no check
				// here: the walk's next step reaches it and returns first.
				best, bestLabels = name[next:], n+1
			}
		}
		if next < 0 {
			return best
		}
		start = next
	}
}

// RegisteredDomain returns the registrable (pay-level) domain of name:
// the public suffix plus one label. ok is false when name IS a public
// suffix (or the root), i.e. nothing is registrable. The domain is a
// substring of the canonical name: no allocation.
func (l *List) RegisteredDomain(name string) (domain string, ok bool) {
	name = dnsname.Canonical(name)
	ps := l.PublicSuffix(name)
	if ps == "" || name == ps {
		// An empty suffix — the root, a name of dots, an exception rule
		// on a TLD — leaves no label to register.
		return "", false
	}
	// name is strictly under ps: take suffix plus one label.
	dot := len(name) - len(ps) - 1
	if dot < 0 || name[dot] != '.' || name[dot+1:] != ps {
		return "", false
	}
	return name[strings.LastIndexByte(name[:dot], '.')+1:], true
}

// IsPublicSuffix reports whether name exactly matches the list's notion of
// a public suffix.
func (l *List) IsPublicSuffix(name string) bool {
	name = dnsname.Canonical(name)
	return name != "" && l.PublicSuffix(name) == name
}

// Default returns the embedded snapshot list covering the TLDs exercised by
// the DarkDNS reproduction (Table 1 gTLDs, the .nl ccTLD, common two-level
// public suffixes, and tricky wildcard/exception cases for tests).
func Default() *List {
	l, err := New(defaultRules...)
	if err != nil {
		panic("psl: bad embedded rules: " + err.Error())
	}
	return l
}

// defaultRules is a compact snapshot of publicsuffix.org entries relevant
// to the reproduction. The full list is ~10k rules; the pipeline only needs
// rules for zones the simulated world can produce plus representative
// corner cases (multi-level, wildcard, exception).
var defaultRules = []string{
	// Table 1 / Table 2 gTLDs.
	"com", "net", "org", "xyz", "shop", "online", "bond", "top", "site",
	"store", "fun", "icu", "info", "biz", "club", "live", "vip", "work",
	"space", "website", "tech", "pro", "app", "dev", "io",
	// ccTLDs in play.
	"nl", "de", "uk", "co.uk", "org.uk", "ac.uk", "eu", "us", "cn",
	"com.cn", "net.cn", "jp", "co.jp", "ne.jp", "fr", "it", "be",
	// Multi-level public suffixes (hosting providers on the PSL).
	"blogspot.com", "github.io", "herokuapp.com", "azurewebsites.net",
	"cloudfront.net", "web.app", "pages.dev", "workers.dev",
	// Wildcard + exception examples (as in the real PSL for .ck, .bd).
	"*.ck", "!www.ck", "*.bd", "*.er",
}
