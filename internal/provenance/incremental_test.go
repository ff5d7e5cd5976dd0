package provenance

import (
	"testing"
	"time"
)

func benchVisits(n int, key []byte) *Trail {
	t := &Trail{}
	for i := 0; i < n; i++ {
		t.Append(Visit{
			Server: "s:1", Action: ActionForward,
			At: time.Duration(i) * time.Millisecond,
		}, key)
	}
	return t
}

// TestIncrementalMarshalMatchesRebuild pins the incremental trail: a trail
// that arrived marshaled and grew hop by hop must serialize byte-identically
// to one rebuilt from scratch, and must reuse the cached element.
func TestIncrementalMarshalMatchesRebuild(t *testing.T) {
	key := []byte("k")
	trail := benchVisits(3, key)
	e1 := trail.Marshal()
	if !e1.Frozen() {
		t.Fatal("Marshal must return a frozen element")
	}
	if trail.Marshal() != e1 {
		t.Fatal("repeated Marshal must return the cached element")
	}

	// Simulate three more hops: each re-parses the marshaled element,
	// appends one visit, and re-marshals — the per-hop path.
	cur := e1
	for hop := 0; hop < 3; hop++ {
		in, err := Unmarshal(cur)
		if err != nil {
			t.Fatal(err)
		}
		if in.elem != cur {
			t.Fatal("Unmarshal of a frozen element must adopt it as the marshal cache")
		}
		// At must be microsecond-granular: the wire form stores µs, and a
		// re-parsed visit must re-sign to the same bytes.
		in.Append(Visit{Server: "h:1", Action: ActionForward, At: time.Duration(hop) * time.Millisecond}, key)
		next := in.Marshal()
		// Incremental marshal: all previous visit elements are aliased.
		for i, c := range cur.Children {
			if next.Children[i] != c {
				t.Fatal("incremental marshal must alias existing visit elements")
			}
		}
		rebuilt := (&Trail{Visits: append([]Visit(nil), in.Visits...)}).Marshal()
		if next.String() != rebuilt.String() {
			t.Fatalf("incremental marshal differs from rebuild:\n%s\n%s", next.String(), rebuilt.String())
		}
		if next.ByteSize() != len(next.String()) {
			t.Fatal("incremental element size memo wrong")
		}
		// Only the new visit was serialized: the grown element is frozen
		// with sizes alone, not re-memoized with every earlier visit's bytes.
		if _, memo := next.FrozenSerialization(); memo {
			t.Fatal("Append re-serialized the whole trail into a memo")
		}
		cur = next
	}

	// The grown trail still verifies end to end.
	final, err := Unmarshal(cur)
	if err != nil {
		t.Fatal(err)
	}
	if i, err := final.Verify(func(string) []byte { return key }); err != nil {
		t.Fatalf("grown trail fails verification at %d: %v", i, err)
	}
}

// TestUnmarshalMutableElementNotCached: an unfrozen element belongs to the
// caller; the trail must not adopt (and later freeze) it.
func TestUnmarshalMutableElementNotCached(t *testing.T) {
	key := []byte("k")
	src := benchVisits(2, key).Marshal().Clone() // mutable deep copy
	in, err := Unmarshal(src)
	if err != nil {
		t.Fatal(err)
	}
	if in.elem != nil {
		t.Fatal("Unmarshal must not cache a mutable element")
	}
	in.Append(Visit{Server: "h:1", Action: ActionForward}, key)
	if got := len(in.Marshal().Children); got != 3 {
		t.Fatalf("marshal children = %d, want 3", got)
	}
	src.SetAttr("tampered", "yes") // must not panic: src stayed caller-owned
}
