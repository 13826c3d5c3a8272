// Package ct implements a Certificate Transparency log in the style of
// RFC 6962: an append-only Merkle tree over (pre)certificate entries, with
// signed-tree-head checkpoints, inclusion proofs and consistency proofs.
//
// DarkDNS step 1 consumes precertificate entries — RFC 6962 requires
// precertificates to be logged before final issuance, which is what makes
// CT the earliest public signal of a new domain's existence.
package ct

import (
	"crypto/sha256"
	"errors"
	"fmt"
)

// Hash is a Merkle tree node hash.
type Hash [sha256.Size]byte

// Domain-separation prefixes per RFC 6962 §2.1.
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// LeafHash computes the RFC 6962 leaf hash of data.
func LeafHash(data []byte) Hash {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(data)
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// nodeHash combines two child hashes.
func nodeHash(l, r Hash) Hash {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(l[:])
	h.Write(r[:])
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// merkleTree is an append-only Merkle tree over leaf hashes.
type merkleTree struct {
	leaves []Hash
}

func (t *merkleTree) append(leaf Hash) {
	t.leaves = append(t.leaves, leaf)
}

func (t *merkleTree) size() int64 { return int64(len(t.leaves)) }

// root computes the Merkle tree hash of the first n leaves (RFC 6962 §2.1).
func (t *merkleTree) root(n int64) (Hash, error) {
	if n < 0 || n > t.size() {
		return Hash{}, fmt.Errorf("ct: root size %d out of range [0,%d]", n, t.size())
	}
	return subtreeRoot(t.leaves[:n]), nil
}

func subtreeRoot(leaves []Hash) Hash {
	n := len(leaves)
	switch n {
	case 0:
		// MTH({}) = SHA-256() per RFC 6962 §2.1.
		return sha256.Sum256(nil)
	case 1:
		return leaves[0]
	}
	k := largestPowerOfTwoBelow(n)
	return nodeHash(subtreeRoot(leaves[:k]), subtreeRoot(leaves[k:]))
}

// largestPowerOfTwoBelow returns the largest power of two strictly less
// than n (n >= 2).
func largestPowerOfTwoBelow(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

// InclusionProof is an audit path from a leaf to a tree root.
type InclusionProof struct {
	LeafIndex int64
	TreeSize  int64
	Path      []Hash
}

// inclusionProof computes the audit path for leaf index in the tree of
// the first size leaves (RFC 6962 §2.1.1).
func (t *merkleTree) inclusionProof(index, size int64) (InclusionProof, error) {
	if size > t.size() || index >= size || index < 0 {
		return InclusionProof{}, errors.New("ct: inclusion proof out of range")
	}
	path := auditPath(t.leaves[:size], index)
	return InclusionProof{LeafIndex: index, TreeSize: size, Path: path}, nil
}

func auditPath(leaves []Hash, index int64) []Hash {
	n := int64(len(leaves))
	if n <= 1 {
		return nil
	}
	k := int64(largestPowerOfTwoBelow(int(n)))
	if index < k {
		path := auditPath(leaves[:k], index)
		return append(path, subtreeRoot(leaves[k:]))
	}
	path := auditPath(leaves[k:], index-k)
	return append(path, subtreeRoot(leaves[:k]))
}

// VerifyInclusion checks that leafHash at proof.LeafIndex is included in
// the tree with the given root, per the RFC 9162 §2.1.3.2 algorithm.
func VerifyInclusion(leafHash Hash, proof InclusionProof, root Hash) bool {
	if proof.LeafIndex < 0 || proof.LeafIndex >= proof.TreeSize {
		return false
	}
	fn, sn := proof.LeafIndex, proof.TreeSize-1
	r := leafHash
	for _, p := range proof.Path {
		if sn == 0 {
			return false
		}
		if fn&1 == 1 || fn == sn {
			r = nodeHash(p, r)
			if fn&1 == 0 {
				for fn != 0 && fn&1 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			r = nodeHash(r, p)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && r == root
}

// ConsistencyProof proves the tree of size First is a prefix of size Second.
type ConsistencyProof struct {
	First  int64
	Second int64
	Path   []Hash
}

// consistencyProof computes the RFC 6962 §2.1.2 proof.
func (t *merkleTree) consistencyProof(m, n int64) (ConsistencyProof, error) {
	if m < 0 || m > n || n > t.size() {
		return ConsistencyProof{}, errors.New("ct: consistency proof out of range")
	}
	if m == 0 || m == n {
		return ConsistencyProof{First: m, Second: n}, nil
	}
	path := subProof(t.leaves[:n], m, true)
	return ConsistencyProof{First: m, Second: n, Path: path}, nil
}

func subProof(leaves []Hash, m int64, isCompleteSubtree bool) []Hash {
	n := int64(len(leaves))
	if m == n {
		if isCompleteSubtree {
			return nil
		}
		return []Hash{subtreeRoot(leaves)}
	}
	k := int64(largestPowerOfTwoBelow(int(n)))
	if m <= k {
		path := subProof(leaves[:k], m, isCompleteSubtree)
		return append(path, subtreeRoot(leaves[k:]))
	}
	path := subProof(leaves[k:], m-k, false)
	return append(path, subtreeRoot(leaves[:k]))
}

// VerifyConsistency checks proof between two roots, per the RFC 9162
// §2.1.4.2 algorithm.
func VerifyConsistency(firstRoot, secondRoot Hash, proof ConsistencyProof) bool {
	m, n := proof.First, proof.Second
	if m == n {
		return firstRoot == secondRoot && len(proof.Path) == 0
	}
	if m == 0 {
		return len(proof.Path) == 0 // empty tree is a prefix of anything
	}
	path := proof.Path
	// When m is a power of two, the old root is a node of the new tree
	// and is prepended implicitly.
	if m&(m-1) == 0 {
		path = append([]Hash{firstRoot}, path...)
	}
	if len(path) == 0 {
		return false
	}
	fn, sn := m-1, n-1
	for fn&1 == 1 {
		fn >>= 1
		sn >>= 1
	}
	fr, sr := path[0], path[0]
	for _, c := range path[1:] {
		if sn == 0 {
			return false
		}
		if fn&1 == 1 || fn == sn {
			fr = nodeHash(c, fr)
			sr = nodeHash(c, sr)
			if fn&1 == 0 {
				for fn != 0 && fn&1 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			sr = nodeHash(sr, c)
		}
		fn >>= 1
		sn >>= 1
	}
	return fr == firstRoot && sr == secondRoot && sn == 0
}
