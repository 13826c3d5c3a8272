// Package zoneset models the change of a TLD zone between two
// publications, and streams that change out of two zone files.
//
// A CZDS-style daily zone file is, for DarkDNS purposes, the set of
// delegated registered domains with their NS RRsets. The diff between
// consecutive ones is the paper's baseline notion of "newly registered
// domains visible in zone files" (Table 1, column Zone NRD): a registry
// publishes it as a Diff, and StreamDiff derives it from two files.
package zoneset

import (
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"darkdns/internal/dnsmsg"
	"darkdns/internal/dnsname"
	"darkdns/internal/zonefile"
)

// Delegation is one registered domain's delegation in its TLD zone.
type Delegation struct {
	Domain string   // canonical registered domain, e.g. "example.com"
	NS     []string // sorted nameserver targets
}

// Diff is the difference between two states of one zone, headed by the
// newer one's TLD, Serial and Taken: what a registry publishes on each of
// its cadences in place of the whole zone. Its slices are sorted and
// read-only.
type Diff struct {
	TLD    string
	Serial uint32
	Taken  time.Time

	Added   []string // domains in new but not old (the zone-file NRDs)
	Removed []string // domains in old but not new
	Changed []string // domains present in both with a different NS set
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
// O(1) memory. Both inputs must list their delegations in sorted owner
// order. The callback receives each difference as it is discovered.
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
			if !slices.Equal(oldDel.NS, newDel.NS) {
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
