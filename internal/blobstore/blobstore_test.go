package blobstore

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"repro/internal/xmltree"
)

func item(i int) *xmltree.Node {
	return xmltree.MustParse(fmt.Sprintf("<sale><cd>Album %02d</cd><price>%d</price></sale>", i, 3+i))
}

// resident reports whether fp has an entry in s.
func resident(s *Store, fp FP) bool {
	_, ok := s.Get(fp)
	return ok
}

func TestFingerprintStableAcrossForms(t *testing.T) {
	// Same content, three provenances: built mutable, built and frozen,
	// decoded from the wire. All must fingerprint identically.
	mutable := item(1)
	frozen := item(1).Freeze()
	decoded, err := xmltree.DecodeString(frozen.String())
	if err != nil {
		t.Fatal(err)
	}
	fpM, sizeM := Fingerprint(mutable)
	fpF, sizeF := Fingerprint(frozen)
	fpD, _ := Fingerprint(decoded)
	if fpM != fpF || fpF != fpD {
		t.Fatalf("fingerprints diverge: mutable %s frozen %s decoded %s", fpM, fpF, fpD)
	}
	if sizeM != sizeF || sizeM != len(frozen.String()) {
		t.Fatalf("sizes diverge: %d vs %d", sizeM, sizeF)
	}
	if other, _ := Fingerprint(item(2)); other == fpM {
		t.Fatal("distinct content collided")
	}
	// The value is on the wire in <blob> references: the leading 128 bits of
	// SHA-256 over the canonical bytes, however the hash gets to read them.
	// The size is the node's ByteSize, which is what lets a caller ask the
	// size first and skip the hash.
	sum := sha256.Sum256([]byte(frozen.String()))
	if want := FP(sum[:16]); fpF != want {
		t.Fatalf("fingerprint %s, want sha256 prefix %s", fpF, want)
	}
	if sizeF != frozen.ByteSize() || sizeM != mutable.ByteSize() {
		t.Fatalf("size %d/%d, ByteSize %d/%d", sizeF, sizeM, frozen.ByteSize(), mutable.ByteSize())
	}
}

func TestFPWireForm(t *testing.T) {
	fp, _ := Fingerprint(item(7))
	s := fp.String()
	if len(s) != 22 {
		t.Fatalf("wire form %q: want 22 chars", s)
	}
	back, ok := ParseFP(s)
	if !ok || back != fp {
		t.Fatalf("round trip failed: %q", s)
	}
	for _, bad := range []string{"", "abc", s[:21], s + "A", "!!!!!!!!!!!!!!!!!!!!!!", s[:21] + " "} {
		if _, ok := ParseFP(bad); ok {
			t.Errorf("ParseFP(%q) accepted", bad)
		}
	}
	if got := string(fp.Append([]byte("fp="))); got != "fp="+s {
		t.Fatalf("Append wrote %q, want %q", got, "fp="+s)
	}
	// Neither direction builds a string: Append writes into the caller's
	// buffer and ParseFP decodes straight into the FP.
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(20, func() {
		buf = fp.Append(buf[:0])
		if back, ok := ParseFP(s); !ok || back != fp {
			t.Fatal("round trip failed")
		}
	}); allocs != 0 {
		t.Fatalf("Append+ParseFP allocate %.0f/op, want 0", allocs)
	}
}

func TestInternDedupsAndRefcounts(t *testing.T) {
	s := New()
	a, fpA := s.Intern(item(1))
	b, fpB := s.Intern(item(1)) // same content, distinct tree
	if fpA != fpB {
		t.Fatal("same content, different fingerprints")
	}
	if a != b {
		t.Fatal("second intern did not return the canonical tree")
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Interns != 2 {
		t.Fatalf("stats after dedup: %+v", st)
	}
	if st.LogicalBytes != 2*st.Bytes {
		t.Fatalf("logical %d vs resident %d: want 2x", st.LogicalBytes, st.Bytes)
	}
	if st.DedupRatio() != 2 {
		t.Fatalf("dedup ratio %v, want 2", st.DedupRatio())
	}

	// Two references: one release keeps it resident, the second frees it.
	s.Release(fpA)
	if !resident(s, fpA) {
		t.Fatal("released below refcount, entry gone early")
	}
	s.Release(fpA)
	if resident(s, fpA) {
		t.Fatal("entry survived final release")
	}
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Released != 1 {
		t.Fatalf("stats after free: %+v", st)
	}
	// The alias handed out earlier is still a valid frozen tree.
	if a.String() == "" || !a.Frozen() {
		t.Fatal("alias invalidated by release")
	}
	// Releasing a non-resident fingerprint is a no-op.
	s.Release(fpA)
}

func TestCanonicalizeNeverOwns(t *testing.T) {
	s := New()
	_, fp := s.Intern(item(3))
	dup := item(3)
	if got := s.Canonicalize(dup); got == dup {
		t.Fatal("resident content not canonicalized")
	}
	miss := item(4)
	if got := s.Canonicalize(miss); got != miss {
		t.Fatal("miss should return the input")
	}
	if s.Stats().Entries != 1 {
		t.Fatal("Canonicalize created an entry")
	}
	// Canonicalize took no reference: one release frees the entry.
	s.Release(fp)
	if s.Stats().Entries != 0 {
		t.Fatal("Canonicalize leaked a reference")
	}
}

func TestRetain(t *testing.T) {
	s := New()
	_, fp := s.Intern(item(5))
	if !s.Retain(fp) {
		t.Fatal("Retain on resident entry failed")
	}
	s.Release(fp)
	s.Release(fp)
	if resident(s, fp) {
		t.Fatal("refcount accounting broken")
	}
	if s.Retain(fp) {
		t.Fatal("Retain on freed entry succeeded")
	}
}

// TestConcurrentInternRelease drives interleaved intern/release/get from
// many goroutines over a small content set, so `go test -race` exercises
// the acceptance requirement directly.
func TestConcurrentInternRelease(t *testing.T) {
	s := New()
	const goroutines = 8
	const rounds = 400
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n, fp := s.Intern(item(r % 5))
				if _, ok := s.Get(fp); !ok {
					t.Error("interned entry not resident")
					return
				}
				if got, _ := Fingerprint(n); got != fp {
					t.Error("canonical node fingerprint mismatch")
					return
				}
				s.Canonicalize(item((r + g) % 5))
				s.Release(fp)
			}
		}(g)
	}
	wg.Wait()
	if s.Stats().Entries != 0 {
		t.Fatalf("%d entries leaked", s.Stats().Entries)
	}
}
