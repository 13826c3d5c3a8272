// Package zoneset models TLD zone snapshots as sets of delegations and
// implements both materialized and streaming diffs between snapshots.
//
// A CZDS-style daily snapshot is, for DarkDNS purposes, the set of
// delegated registered domains with their NS RRsets (plus glue). The diff
// between consecutive snapshots is the paper's baseline notion of "newly
// registered domains visible in zone files" (Table 1, column Zone NRD).
package zoneset

import (
	"fmt"
	"io"
	"maps"
	"net/netip"
	"sort"
	"strings"
	"time"

	"darkdns/internal/dnsmsg"
	"darkdns/internal/dnsname"
	"darkdns/internal/zonefile"
)

// Delegation is one registered domain's delegation in its TLD zone. Once
// in a Snapshot a Delegation is immutable: Add replaces the value, it
// never edits one in place, which is what lets Clone share them between
// snapshots. Readers must treat it — NS and Glue included — as read-only.
type Delegation struct {
	Domain string   // canonical registered domain, e.g. "example.com"
	NS     []string // sorted nameserver targets
	Glue   []Glue   // in-bailiwick nameserver addresses
}

// Glue is an address record for an in-zone nameserver.
type Glue struct {
	Name string
	Addr netip.Addr
}

// nsEqual reports whether two sorted NS sets are identical.
func nsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Snapshot is an immutable-after-Build zone snapshot.
type Snapshot struct {
	TLD    string
	Serial uint32
	Taken  time.Time

	dels   map[string]*Delegation
	sorted []string // lazily built canonical-order domain list
}

// NewSnapshot creates an empty snapshot for tld.
func NewSnapshot(tld string, serial uint32, taken time.Time) *Snapshot {
	return &Snapshot{
		TLD:    dnsname.Canonical(tld),
		Serial: serial,
		Taken:  taken,
		dels:   make(map[string]*Delegation),
	}
}

// Add inserts or replaces a delegation. NS targets are canonicalized and
// sorted. Adding invalidates any previously returned Domains slice.
func (s *Snapshot) Add(domain string, ns []string, glue ...Glue) {
	domain = dnsname.Canonical(domain)
	cns := make([]string, len(ns))
	for i, n := range ns {
		cns[i] = dnsname.Canonical(n)
	}
	sort.Strings(cns)
	s.dels[domain] = &Delegation{Domain: domain, NS: cns, Glue: glue}
	s.sorted = nil
}

// Remove deletes a delegation.
func (s *Snapshot) Remove(domain string) {
	delete(s.dels, dnsname.Canonical(domain))
	s.sorted = nil
}

// Contains reports whether domain is delegated in this snapshot.
func (s *Snapshot) Contains(domain string) bool {
	_, ok := s.dels[dnsname.Canonical(domain)]
	return ok
}

// Get returns the delegation for domain, or nil. The value is shared with
// this snapshot and every clone taken of it: read-only.
func (s *Snapshot) Get(domain string) *Delegation {
	return s.dels[dnsname.Canonical(domain)]
}

// Len returns the number of delegations.
func (s *Snapshot) Len() int { return len(s.dels) }

// Domains returns all delegated domains in lexicographic order. The slice
// is cached; callers must not mutate it.
func (s *Snapshot) Domains() []string {
	if s.sorted == nil {
		s.sorted = make([]string, 0, len(s.dels))
		for d := range s.dels {
			s.sorted = append(s.sorted, d)
		}
		sort.Strings(s.sorted)
	}
	return s.sorted
}

// Clone returns an independent snapshot, used by registries to publish a
// frozen view: Add and Remove on either side never show through the
// other. Only the map is copied — the immutable Delegation values are
// shared, so a clone costs one map, not three allocations per domain.
func (s *Snapshot) Clone() *Snapshot {
	return &Snapshot{TLD: s.TLD, Serial: s.Serial, Taken: s.Taken, dels: maps.Clone(s.dels)}
}

// Diff is the difference between two snapshots.
type Diff struct {
	Added   []string // domains in new but not old (the zone-file NRDs)
	Removed []string // domains in old but not new
	Changed []string // domains present in both with a different NS set
}

// Compare computes old→new differences with both snapshots materialized.
func Compare(old, new *Snapshot) Diff {
	var d Diff
	for _, dom := range new.Domains() {
		o := old.dels[dom]
		if o == nil {
			d.Added = append(d.Added, dom)
		} else if !nsEqual(o.NS, new.dels[dom].NS) {
			d.Changed = append(d.Changed, dom)
		}
	}
	for _, dom := range old.Domains() {
		if _, ok := new.dels[dom]; !ok {
			d.Removed = append(d.Removed, dom)
		}
	}
	return d
}

// WriteZone serializes the snapshot as a master file: SOA apex record,
// apex NS, then one NS RRset per delegation with glue, in sorted order.
// (Named WriteZone rather than WriteTo to avoid colliding with the
// io.WriterTo signature convention.)
func (s *Snapshot) WriteZone(w io.Writer) (err error) {
	zw := zonefile.NewWriter(w, s.TLD)
	if err = zw.WriteComment(fmt.Sprintf("zone %s serial %d taken %s", s.TLD, s.Serial, s.Taken.UTC().Format(time.RFC3339))); err != nil {
		return err
	}
	soa := dnsmsg.Record{
		Name: s.TLD, Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassIN, TTL: 900,
		SOA: dnsmsg.SOAData{
			MName: "a.nic." + s.TLD, RName: "hostmaster.nic." + s.TLD,
			Serial: s.Serial, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
		},
	}
	if err = zw.WriteRecord(&soa); err != nil {
		return err
	}
	apexNS := dnsmsg.Record{Name: s.TLD, Type: dnsmsg.TypeNS, Class: dnsmsg.ClassIN, TTL: 86400, NS: "a.nic." + s.TLD}
	if err = zw.WriteRecord(&apexNS); err != nil {
		return err
	}
	for _, dom := range s.Domains() {
		del := s.dels[dom]
		for _, ns := range del.NS {
			rec := dnsmsg.Record{Name: dom, Type: dnsmsg.TypeNS, Class: dnsmsg.ClassIN, TTL: 3600, NS: ns}
			if err = zw.WriteRecord(&rec); err != nil {
				return err
			}
		}
		for _, g := range del.Glue {
			rec := dnsmsg.Record{Name: g.Name, Class: dnsmsg.ClassIN, TTL: 3600}
			if g.Addr.Is4() {
				rec.Type, rec.A = dnsmsg.TypeA, g.Addr
			} else {
				rec.Type, rec.AAAA = dnsmsg.TypeAAAA, g.Addr
			}
			if err = zw.WriteRecord(&rec); err != nil {
				return err
			}
		}
	}
	return zw.Flush()
}

// Read materializes a snapshot from a master-file stream. Records that are
// not delegations (SOA, apex NS) set zone metadata; NS records below the
// apex group into delegations; in-bailiwick A/AAAA records attach as glue.
func Read(r io.Reader, tld string) (*Snapshot, error) {
	tld = dnsname.Canonical(tld)
	s := NewSnapshot(tld, 0, time.Time{})
	p := zonefile.New(r, zonefile.WithDefaultTTL(3600))
	pendingNS := make(map[string][]string)
	pendingGlue := make(map[string][]Glue)
	for {
		rec, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch rec.Type {
		case dnsmsg.TypeSOA:
			if rec.Name == tld {
				s.Serial = rec.SOA.Serial
			}
		case dnsmsg.TypeNS:
			if rec.Name == tld {
				continue // apex NS, not a delegation
			}
			dom := registeredUnder(rec.Name, tld)
			if dom == "" {
				continue
			}
			pendingNS[dom] = append(pendingNS[dom], dnsname.Canonical(rec.NS))
		case dnsmsg.TypeA, dnsmsg.TypeAAAA:
			dom := registeredUnder(rec.Name, tld)
			if dom == "" {
				continue
			}
			addr := rec.A
			if rec.Type == dnsmsg.TypeAAAA {
				addr = rec.AAAA
			}
			pendingGlue[dom] = append(pendingGlue[dom], Glue{Name: rec.Name, Addr: addr})
		}
	}
	for dom, ns := range pendingNS {
		s.Add(dom, ns, pendingGlue[dom]...)
	}
	return s, nil
}

// registeredUnder reduces name to its registered domain directly under tld
// ("ns1.example.com" under "com" → "example.com"); "" when not under tld.
func registeredUnder(name, tld string) string {
	if !dnsname.IsSubdomain(name, tld) || name == tld {
		return ""
	}
	rest := strings.TrimSuffix(name, "."+tld)
	if i := strings.LastIndexByte(rest, '.'); i >= 0 {
		rest = rest[i+1:]
	}
	return rest + "." + tld
}

// StreamDiff computes the diff between two sorted master-file streams in
// O(1) memory. Both inputs must be snapshots produced by WriteZone (or any
// zone file whose delegations appear in sorted owner order). The callback
// receives each difference as it is discovered.
//
// This is the ablation counterpart to Compare: DESIGN.md §5 benchmarks the
// two against each other on multi-hundred-thousand-entry zones.
func StreamDiff(old, new io.Reader, tld string, fn func(kind DiffKind, domain string)) error {
	oldIt, err := newDelegationIter(old, tld)
	if err != nil {
		return err
	}
	newIt, err := newDelegationIter(new, tld)
	if err != nil {
		return err
	}
	oldDel, oldOK, err := oldIt.next()
	if err != nil {
		return err
	}
	newDel, newOK, err := newIt.next()
	if err != nil {
		return err
	}
	for oldOK || newOK {
		switch {
		case !oldOK || (newOK && newDel.Domain < oldDel.Domain):
			fn(DiffAdded, newDel.Domain)
			if newDel, newOK, err = newIt.next(); err != nil {
				return err
			}
		case !newOK || (oldOK && oldDel.Domain < newDel.Domain):
			fn(DiffRemoved, oldDel.Domain)
			if oldDel, oldOK, err = oldIt.next(); err != nil {
				return err
			}
		default: // same domain
			if !nsEqual(oldDel.NS, newDel.NS) {
				fn(DiffChanged, newDel.Domain)
			}
			if oldDel, oldOK, err = oldIt.next(); err != nil {
				return err
			}
			if newDel, newOK, err = newIt.next(); err != nil {
				return err
			}
		}
	}
	return nil
}

// DiffKind labels a StreamDiff callback event.
type DiffKind uint8

// Diff event kinds.
const (
	DiffAdded DiffKind = iota
	DiffRemoved
	DiffChanged
)

// String returns the kind name.
func (k DiffKind) String() string {
	switch k {
	case DiffAdded:
		return "added"
	case DiffRemoved:
		return "removed"
	case DiffChanged:
		return "changed"
	}
	return "unknown"
}

// delegationIter yields delegations grouped by owner from a sorted stream.
type delegationIter struct {
	p    *zonefile.Parser
	tld  string
	held *dnsmsg.Record // first record of the next group
	done bool
}

func newDelegationIter(r io.Reader, tld string) (*delegationIter, error) {
	return &delegationIter{
		p:   zonefile.New(r, zonefile.WithDefaultTTL(3600)),
		tld: dnsname.Canonical(tld),
	}, nil
}

// next returns the next delegation in stream order.
func (it *delegationIter) next() (Delegation, bool, error) {
	var del Delegation
	for {
		rec := it.held
		it.held = nil
		if rec == nil {
			if it.done {
				break
			}
			r, err := it.p.Next()
			if err == io.EOF {
				it.done = true
				break
			}
			if err != nil {
				return del, false, err
			}
			rec = r
		}
		if rec.Type != dnsmsg.TypeNS || rec.Name == it.tld {
			continue // skip SOA, apex, glue
		}
		dom := registeredUnder(rec.Name, it.tld)
		if dom == "" {
			continue
		}
		if del.Domain == "" {
			del.Domain = dom
		}
		if dom != del.Domain {
			it.held = rec // start of the next group
			break
		}
		del.NS = append(del.NS, dnsname.Canonical(rec.NS))
	}
	if del.Domain == "" {
		return del, false, nil
	}
	sort.Strings(del.NS)
	return del, true, nil
}
