// Package ct models the part of a Certificate Transparency log that
// DarkDNS consumes: each logged (pre)certificate gets an index and a
// logged time, and is handed to the log's subscribers as it is appended.
//
// DarkDNS step 1 consumes precertificate entries — RFC 6962 requires
// precertificates to be logged before final issuance, which is what makes
// CT the earliest public signal of a new domain's existence. The log
// keeps no entry once its subscribers have seen it, and hashes no Merkle
// tree: nothing in a campaign reads an entry back or asks for a tree head.
package ct

import (
	"slices"
	"sync"
	"time"
)

// EntryKind distinguishes log entries.
type EntryKind uint8

// Log entry kinds. DarkDNS only consumes precertificates, which RFC 6962
// requires to be logged before final certificate issuance.
const (
	PreCertificate EntryKind = iota
	FinalCertificate
)

// String returns the kind name.
func (k EntryKind) String() string {
	if k == PreCertificate {
		return "precert"
	}
	return "cert"
}

// Entry is one logged (pre)certificate.
type Entry struct {
	Index     int64
	Kind      EntryKind
	Issuer    string
	CN        string
	SANs      []string
	NotBefore time.Time
	Logged    time.Time
}

// EachName yields the deduplicated union of CN and SANs without building
// it: CN, then each SAN, skipping empty names and names already yielded.
// It is an iter.Seq as a method, so `for n := range e.EachName` binds no
// closure that outlives the loop. A certificate names a handful of
// hosts, so a repeat is found by comparing with the names before it
// rather than through a set.
func (e *Entry) EachName(yield func(string) bool) {
	if e.CN != "" && !yield(e.CN) {
		return
	}
	for i, n := range e.SANs {
		if n == "" || n == e.CN || slices.Contains(e.SANs[:i], n) {
			continue
		}
		if !yield(n) {
			return
		}
	}
}

// Log is an append-only CT log. Safe for concurrent use.
type Log struct {
	name string

	mu   sync.Mutex
	size int64 // entries appended so far: the next entry's index
	subs []func(Entry)
}

// NewLog creates a log named name (e.g. "argon2023").
func NewLog(name string) *Log {
	return &Log{name: name}
}

// Name returns the log's name.
func (l *Log) Name() string { return l.name }

// Subscribe registers fn to be called synchronously for every new entry.
// This is the hook the certstream feed uses.
func (l *Log) Subscribe(fn func(Entry)) {
	l.mu.Lock()
	l.subs = append(l.subs, fn)
	l.mu.Unlock()
}

// Append logs an entry, assigning its index and logged timestamp, and
// hands it to every subscriber. The entry owns a copy of sans, because a
// subscriber may keep it.
func (l *Log) Append(now time.Time, kind EntryKind, issuer, cn string, sans []string, notBefore time.Time) Entry {
	l.mu.Lock()
	e := Entry{
		Index: l.size, Kind: kind, Issuer: issuer, CN: cn,
		SANs: append([]string(nil), sans...), NotBefore: notBefore, Logged: now,
	}
	l.size++
	// Subscribe only appends, so this view of the list never changes.
	subs := l.subs
	l.mu.Unlock()
	for _, fn := range subs {
		fn(e)
	}
	return e
}
