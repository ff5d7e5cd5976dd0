// Package blobstore is a content-addressed store of frozen payload
// subtrees: each entry is keyed by a fingerprint of its canonical XML
// serialization, so any number of holders of the same bytes — collection
// installs, replication snapshots, result caches, in-flight duplicates —
// share one immutable tree.
//
// The store piggybacks on the freeze/COW ownership model (see TESTING.md):
// Freeze memoizes a subtree's canonical serialization on the node, so
// fingerprinting a frozen payload is a single hash pass over bytes already
// in hand, and an interned entry can be aliased lock-free from any number
// of goroutines forever.
//
// Reference counts govern store residency only, never node lifetime: a
// released entry leaves the store (it stops being servable by fingerprint
// and stops counting toward Stats), but every alias handed out earlier
// stays valid — frozen nodes are garbage-collected like any other Go value.
// Owners that pin entries (a peer's collections, its per-link taught sets)
// call Intern/Retain and pair each with a Release; readers that only want
// dedup against whatever happens to be resident call Canonicalize, which
// never takes ownership.
package blobstore

import (
	"crypto/sha256"
	"encoding/base64"
	"sync"
	"unsafe"

	"repro/internal/xmltree"
)

// FP is a content fingerprint: SHA-256 of the canonical serialization,
// truncated to 16 bytes. 128 bits keeps accidental collision probability
// negligible at any plausible store size while the wire form (unpadded
// base64url, 22 bytes) stays cheaper than almost any payload it replaces.
type FP [16]byte

// String renders the fingerprint in its wire form: unpadded base64url, the
// same alphabet the visited-section fingerprints use.
func (fp FP) String() string { return base64.RawURLEncoding.EncodeToString(fp[:]) }

// Append appends the wire form to dst: String without the string, for
// writers that stage fingerprints straight into a frame.
func (fp FP) Append(dst []byte) []byte { return base64.RawURLEncoding.AppendEncode(dst, fp[:]) }

// ParseFP parses the wire form back into a fingerprint, decoding in place:
// s is typically a substring of a decoded attribute, and nothing is copied.
func ParseFP(s string) (FP, bool) {
	var fp FP
	if base64.RawURLEncoding.DecodedLen(len(s)) != len(fp) {
		return fp, false
	}
	n, err := base64.RawURLEncoding.Decode(fp[:], unsafe.Slice(unsafe.StringData(s), len(s)))
	return fp, err == nil && n == len(fp)
}

// Fingerprint computes a node's fingerprint and the length of its canonical
// serialization. Frozen subtrees hash their memoized serialization (no
// re-walk); mutable ones pay one canonical serialization. The hash reads the
// string in place: SHA-256 only reads its input, and a payload can be most
// of a frame, so a []byte copy of it was a tenth of a join's allocation.
func Fingerprint(n *xmltree.Node) (FP, int) {
	s, ok := n.FrozenSerialization()
	if !ok {
		s = n.String()
	}
	var fp FP
	sum := sha256.Sum256(unsafe.Slice(unsafe.StringData(s), len(s)))
	copy(fp[:], sum[:])
	return fp, len(s)
}

// Stats is a snapshot of a store's counters. Bytes is the resident unique
// canonical bytes; LogicalBytes accumulates the canonical size of every
// Intern/Canonicalize call that found or created an entry — the bytes the
// callers would collectively hold without dedup. DedupRatio is their
// quotient.
type Stats struct {
	Entries      int
	Bytes        int64
	LogicalBytes int64
	Interns      uint64 // Intern calls
	Hits         uint64 // Intern/Canonicalize calls answered by an existing entry
	Released     uint64 // entries freed when their refcount reached zero
}

// DedupRatio reports logical bytes per resident byte (1.0 = no dedup yet,
// or nothing resident). The denominator is the bytes resident now: Release
// lowers Bytes and never LogicalBytes, so releasing entries raises the ratio.
func (s Stats) DedupRatio() float64 {
	if s.Bytes <= 0 {
		return 1
	}
	return float64(s.LogicalBytes) / float64(s.Bytes)
}

type entry struct {
	node *xmltree.Node
	refs int
	size int
}

// Store is a refcounted fingerprint-keyed store of frozen subtrees. Safe
// for concurrent use. Each Store is independent (one per peer); there is no
// package-level mutable state.
type Store struct {
	mu      sync.Mutex
	entries map[FP]*entry
	stats   Stats
}

// New creates an empty store.
func New() *Store {
	return &Store{entries: map[FP]*entry{}}
}

// Intern adds the subtree to the store (freezing it if needed) and returns
// the canonical node for its content plus its fingerprint. A first intern
// stores n itself with one reference; interning content already resident
// bumps its refcount and returns the existing tree, so callers that retain
// the result alias one copy. Every Intern must be paired with a Release of
// the returned fingerprint when the caller stops holding the content.
func (s *Store) Intern(n *xmltree.Node) (*xmltree.Node, FP) {
	n.Freeze()
	fp, size := Fingerprint(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Interns++
	s.stats.LogicalBytes += int64(size)
	if e, ok := s.entries[fp]; ok {
		e.refs++
		s.stats.Hits++
		return e.node, fp
	}
	s.entries[fp] = &entry{node: n, refs: 1, size: size}
	s.stats.Entries++
	s.stats.Bytes += int64(size)
	return n, fp
}

// Canonicalize returns the resident canonical tree for n's content when the
// store already holds it, and n itself otherwise. It never creates entries
// and never changes refcounts — dedup against current residents with no
// ownership obligation (prepared-plan cache freight uses it: cache eviction
// then needs no release bookkeeping). n is frozen either way, since the
// caller is about to retain whatever comes back.
func (s *Store) Canonicalize(n *xmltree.Node) *xmltree.Node {
	n.Freeze()
	fp, size := Fingerprint(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[fp]; ok {
		s.stats.Hits++
		s.stats.LogicalBytes += int64(size)
		return e.node
	}
	return n
}

// Retain bumps the refcount of a resident entry, returning false when the
// fingerprint is not resident.
func (s *Store) Retain(fp FP) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[fp]
	if !ok {
		return false
	}
	e.refs++
	return true
}

// Release drops one reference; the entry leaves the store when its count
// reaches zero (aliases handed out earlier remain valid — refcounts govern
// residency, not node lifetime). Releasing a non-resident fingerprint is a
// no-op, so owners can release unconditionally on teardown.
func (s *Store) Release(fp FP) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[fp]
	if !ok {
		return
	}
	e.refs--
	if e.refs <= 0 {
		delete(s.entries, fp)
		s.stats.Entries--
		s.stats.Bytes -= int64(e.size)
		s.stats.Released++
	}
}

// Get returns the resident tree for a fingerprint without touching its
// refcount — the read path for resolving a payload-by-reference section.
func (s *Store) Get(fp FP) (*xmltree.Node, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[fp]
	if !ok {
		return nil, false
	}
	return e.node, true
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
