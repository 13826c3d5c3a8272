package ct

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
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
	Index     int64     `json:"index"`
	Kind      EntryKind `json:"kind"`
	Issuer    string    `json:"issuer"`
	CN        string    `json:"cn"`
	SANs      []string  `json:"sans"`
	NotBefore time.Time `json:"not_before"`
	Logged    time.Time `json:"logged"`
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

// leafData serializes the entry for hashing. json is canonical enough for
// the simulator: field order is fixed by the struct.
func (e *Entry) leafData() []byte {
	b, err := json.Marshal(e)
	if err != nil {
		panic("ct: entry marshal: " + err.Error())
	}
	return b
}

// SignedTreeHead is a checkpoint over the log.
type SignedTreeHead struct {
	TreeSize  int64
	Timestamp time.Time
	Root      Hash
	Signature [sha256.Size]byte
}

// Log is an append-only CT log. Safe for concurrent use.
//
// The Merkle tree is hashed when something reads it: Append only stores
// the entry, and STH and the proofs first hash the entries appended since
// the tree was last read. A campaign that never asks for a tree head
// hashes nothing.
type Log struct {
	name string
	key  []byte // HMAC key standing in for the log's signing key

	mu      sync.Mutex
	tree    merkleTree // leaf hashes of entries[:tree.size()]
	entries []Entry
	subs    []func(Entry)
}

// NewLog creates a log named name (e.g. "argon2023") with a signing key.
func NewLog(name string, key []byte) *Log {
	if len(key) == 0 {
		key = []byte(name)
	}
	return &Log{name: name, key: key}
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

// Append logs an entry, assigning its index and logged timestamp.
func (l *Log) Append(now time.Time, kind EntryKind, issuer, cn string, sans []string, notBefore time.Time) Entry {
	l.mu.Lock()
	e := Entry{
		Index: int64(len(l.entries)), Kind: kind, Issuer: issuer, CN: cn,
		SANs: append([]string(nil), sans...), NotBefore: notBefore, Logged: now,
	}
	l.entries = append(l.entries, e)
	// Subscribe only appends, so this view of the list never changes.
	subs := l.subs
	l.mu.Unlock()
	for _, fn := range subs {
		fn(e)
	}
	return e
}

// Size returns the current tree size.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.entries))
}

// hashed brings the tree up to every appended entry and returns it. The
// caller holds mu.
func (l *Log) hashed() *merkleTree {
	for i := l.tree.size(); i < int64(len(l.entries)); i++ {
		l.tree.append(LeafHash(l.entries[i].leafData()))
	}
	return &l.tree
}

// Entry returns the entry at index.
func (l *Log) Entry(index int64) (Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if index < 0 || index >= int64(len(l.entries)) {
		return Entry{}, fmt.Errorf("ct: index %d out of range", index)
	}
	return l.entries[index], nil
}

// Range returns entries in [from, to).
func (l *Log) Range(from, to int64) ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < 0 || to > int64(len(l.entries)) || from > to {
		return nil, errors.New("ct: bad range")
	}
	return append([]Entry(nil), l.entries[from:to]...), nil
}

// STH produces a signed tree head over the current tree.
func (l *Log) STH(now time.Time) (SignedTreeHead, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	tree := l.hashed()
	root, err := tree.root(tree.size())
	if err != nil {
		return SignedTreeHead{}, err
	}
	sth := SignedTreeHead{TreeSize: tree.size(), Timestamp: now, Root: root}
	sth.Signature = l.sign(sth)
	return sth, nil
}

// VerifySTH checks the head's signature against this log's key.
func (l *Log) VerifySTH(sth SignedTreeHead) bool {
	return hmac.Equal(sth.Signature[:], l.signBytes(sth))
}

func (l *Log) sign(sth SignedTreeHead) (out [sha256.Size]byte) {
	copy(out[:], l.signBytes(sth))
	return out
}

func (l *Log) signBytes(sth SignedTreeHead) []byte {
	mac := hmac.New(sha256.New, l.key)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(sth.TreeSize))
	mac.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(sth.Timestamp.UnixNano()))
	mac.Write(buf[:])
	mac.Write(sth.Root[:])
	return mac.Sum(nil)
}

// InclusionProof builds a proof for the entry at index against treeSize.
func (l *Log) InclusionProof(index, treeSize int64) (InclusionProof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hashed().inclusionProof(index, treeSize)
}

// ConsistencyProof builds a proof between two tree sizes.
func (l *Log) ConsistencyProof(m, n int64) (ConsistencyProof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hashed().consistencyProof(m, n)
}

// LeafHashAt recomputes the leaf hash for the entry at index, for use with
// VerifyInclusion.
func (l *Log) LeafHashAt(index int64) (Hash, error) {
	e, err := l.Entry(index)
	if err != nil {
		return Hash{}, err
	}
	return LeafHash(e.leafData()), nil
}
