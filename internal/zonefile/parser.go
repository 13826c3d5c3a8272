package zonefile

import (
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"darkdns/internal/dnsmsg"
	"darkdns/internal/dnsname"
)

// Parser streams resource records from a master file. Create with New,
// then call Next until it returns io.EOF.
type Parser struct {
	lx         *lexer
	origin     string // canonical, "" = root
	defaultTTL uint32
	haveTTL    bool
	lastOwner  string
}

// Option configures a Parser.
type Option func(*Parser)

// WithDefaultTTL sets the TTL used when records omit one and no $TTL
// directive has been seen.
func WithDefaultTTL(ttl uint32) Option {
	return func(p *Parser) { p.defaultTTL = ttl; p.haveTTL = true }
}

// New builds a streaming parser over r.
func New(r io.Reader, opts ...Option) *Parser {
	p := &Parser{lx: newLexer(r)}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Next returns the next record. It returns io.EOF after the last record.
func (p *Parser) Next() (*dnsmsg.Record, error) {
	for {
		fields, ownerPresent, err := p.lx.logicalLine()
		if err != nil {
			return nil, err
		}
		if len(fields) == 0 {
			continue
		}
		// Directives.
		if ownerPresent && strings.HasPrefix(fields[0].text, "$") {
			if err := p.directive(fields); err != nil {
				return nil, err
			}
			continue
		}
		rec, err := p.record(fields, ownerPresent)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			return rec, nil
		}
	}
}

func (p *Parser) directive(fields []token) error {
	switch strings.ToUpper(fields[0].text) {
	case "$ORIGIN":
		if len(fields) != 2 {
			return &errSyntax{fields[0].line, "$ORIGIN wants exactly one argument"}
		}
		p.origin = dnsname.Canonical(fields[1].text)
		return nil
	case "$TTL":
		if len(fields) != 2 {
			return &errSyntax{fields[0].line, "$TTL wants exactly one argument"}
		}
		ttl, err := parseTTL(fields[1].text)
		if err != nil {
			return &errSyntax{fields[0].line, err.Error()}
		}
		p.defaultTTL = ttl
		p.haveTTL = true
		return nil
	case "$INCLUDE":
		return &errSyntax{fields[0].line, "$INCLUDE is not supported in streaming mode"}
	default:
		return &errSyntax{fields[0].line, "unknown directive " + fields[0].text}
	}
}

func (p *Parser) record(fields []token, ownerPresent bool) (*dnsmsg.Record, error) {
	line := fields[0].line
	i := 0
	owner := p.lastOwner
	if ownerPresent {
		owner = p.qualify(fields[0].text)
		i = 1
	}
	if !ownerPresent && p.lastOwner == "" {
		return nil, &errSyntax{line, "record with no owner and no previous owner"}
	}
	p.lastOwner = owner

	// [TTL] [class] type — TTL and class may come in either order.
	ttl := p.defaultTTL
	ttlSet := p.haveTTL
	classSeen := false
	var typ dnsmsg.Type
	for {
		if i >= len(fields) {
			return nil, &errSyntax{line, "record is missing a type"}
		}
		f := strings.ToUpper(fields[i].text)
		if !classSeen && f == "IN" {
			classSeen = true
			i++
			continue
		}
		if !classSeen && (f == "CH" || f == "HS" || f == "CS") {
			return nil, &errSyntax{line, "unsupported class " + f}
		}
		if v, err := parseTTL(fields[i].text); err == nil && fields[i].text[0] >= '0' && fields[i].text[0] <= '9' {
			ttl = v
			ttlSet = true
			i++
			continue
		}
		t, err := dnsmsg.ParseType(f)
		if err != nil {
			return nil, &errSyntax{line, fmt.Sprintf("expected type, got %q", fields[i].text)}
		}
		typ = t
		i++
		break
	}
	if !ttlSet {
		return nil, &errSyntax{line, "record has no TTL and no $TTL default"}
	}

	rec := &dnsmsg.Record{Name: owner, Type: typ, Class: dnsmsg.ClassIN, TTL: ttl}
	rd := fields[i:]
	var err error
	switch typ {
	case dnsmsg.TypeA:
		err = p.rdA(rec, rd, line)
	case dnsmsg.TypeAAAA:
		err = p.rdAAAA(rec, rd, line)
	case dnsmsg.TypeNS:
		rec.NS, err = p.rdName(rd, line)
	case dnsmsg.TypeCNAME:
		rec.CNAME, err = p.rdName(rd, line)
	case dnsmsg.TypeSOA:
		err = p.rdSOA(rec, rd, line)
	case dnsmsg.TypeMX:
		err = p.rdMX(rec, rd, line)
	case dnsmsg.TypeTXT:
		err = p.rdTXT(rec, rd, line)
	default:
		err = &errSyntax{line, "unsupported record type " + typ.String()}
	}
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// qualify resolves a presentation name against the origin.
func (p *Parser) qualify(s string) string {
	if s == "@" {
		return p.origin
	}
	if strings.HasSuffix(s, ".") {
		return dnsname.Canonical(s)
	}
	if p.origin == "" {
		return dnsname.Canonical(s)
	}
	return dnsname.Canonical(s) + "." + p.origin
}

func (p *Parser) rdA(rec *dnsmsg.Record, rd []token, line int) error {
	if len(rd) != 1 {
		return &errSyntax{line, "A wants one address"}
	}
	a, err := netip.ParseAddr(rd[0].text)
	if err != nil || !a.Is4() {
		return &errSyntax{line, "bad IPv4 address " + rd[0].text}
	}
	rec.A = a
	return nil
}

func (p *Parser) rdAAAA(rec *dnsmsg.Record, rd []token, line int) error {
	if len(rd) != 1 {
		return &errSyntax{line, "AAAA wants one address"}
	}
	a, err := netip.ParseAddr(rd[0].text)
	if err != nil || !a.Is6() || a.Is4() {
		return &errSyntax{line, "bad IPv6 address " + rd[0].text}
	}
	rec.AAAA = a
	return nil
}

func (p *Parser) rdName(rd []token, line int) (string, error) {
	if len(rd) != 1 {
		return "", &errSyntax{line, "record wants one domain name"}
	}
	return p.qualify(rd[0].text), nil
}

func (p *Parser) rdSOA(rec *dnsmsg.Record, rd []token, line int) error {
	if len(rd) != 7 {
		return &errSyntax{line, fmt.Sprintf("SOA wants 7 fields, got %d", len(rd))}
	}
	rec.SOA.MName = p.qualify(rd[0].text)
	rec.SOA.RName = p.qualify(rd[1].text)
	vals := make([]uint32, 5)
	for i := 0; i < 5; i++ {
		v, err := parseTTL(rd[2+i].text)
		if err != nil {
			return &errSyntax{line, "bad SOA numeric field: " + rd[2+i].text}
		}
		vals[i] = v
	}
	rec.SOA.Serial, rec.SOA.Refresh, rec.SOA.Retry, rec.SOA.Expire, rec.SOA.Minimum =
		vals[0], vals[1], vals[2], vals[3], vals[4]
	return nil
}

func (p *Parser) rdMX(rec *dnsmsg.Record, rd []token, line int) error {
	if len(rd) != 2 {
		return &errSyntax{line, "MX wants preference and exchange"}
	}
	pref, err := strconv.ParseUint(rd[0].text, 10, 16)
	if err != nil {
		return &errSyntax{line, "bad MX preference " + rd[0].text}
	}
	rec.MX.Preference = uint16(pref)
	rec.MX.Exchange = p.qualify(rd[1].text)
	return nil
}

func (p *Parser) rdTXT(rec *dnsmsg.Record, rd []token, line int) error {
	if len(rd) == 0 {
		return &errSyntax{line, "TXT wants at least one string"}
	}
	for _, f := range rd {
		rec.TXT = append(rec.TXT, f.text)
	}
	return nil
}

// parseTTL parses a TTL: plain seconds or BIND time units (1h30m, 2d, 1w).
func parseTTL(s string) (uint32, error) {
	if s == "" {
		return 0, fmt.Errorf("empty TTL")
	}
	if v, err := strconv.ParseUint(s, 10, 32); err == nil {
		return uint32(v), nil
	}
	var total uint64
	var cur uint64
	haveDigit := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case '0' <= c && c <= '9':
			cur = cur*10 + uint64(c-'0')
			haveDigit = true
		default:
			if !haveDigit {
				return 0, fmt.Errorf("bad TTL %q", s)
			}
			var mult uint64
			switch c {
			case 's', 'S':
				mult = 1
			case 'm', 'M':
				mult = 60
			case 'h', 'H':
				mult = 3600
			case 'd', 'D':
				mult = 86400
			case 'w', 'W':
				mult = 604800
			default:
				return 0, fmt.Errorf("bad TTL unit %q", string(c))
			}
			total += cur * mult
			cur = 0
			haveDigit = false
		}
	}
	if haveDigit {
		total += cur
	}
	if total > 1<<32-1 {
		return 0, fmt.Errorf("TTL overflow")
	}
	return uint32(total), nil
}
