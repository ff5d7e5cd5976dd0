package engine

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/xmltree"
)

// FuzzJoinTuple is the differential oracle for a root join's tuples: for any
// two items, in every form an item reaches a join in (decoded, sealed,
// mutable, frozen without a memo of its own), the sealed tuple Reduce emits
// has the structural tuple's serialization as its memo, the same ByteSize,
// and builds through Kids into an equal tree. Under plain `go test` only the
// seed corpus runs; `go test -fuzz=FuzzJoinTuple` explores.
func FuzzJoinTuple(f *testing.F) {
	for _, seed := range [][2]string{
		{`<sale><cd>A</cd><price>8</price></sale>`, `<listing><cd>A</cd><song>a1</song></listing>`},
		{`<sale id="7" z="&lt;"><cd>A</cd></sale>`, `<listing a="1"/>`},
		{`<x>a &lt; b &amp; c<k>v</k>tail</x>`, `<y>lead only &gt;</y>`},
		{`<x/>`, `<y></y>`},
		{`<x><k/><k>v</k><m><n>deep</n></m></x>`, `<y>pre<![CDATA[<raw> & bits]]>post<z/></y>`},
		{"<x>cr\r<k>tab\tnl\n</k></x>", `<y b='2' a="1" ><k >v</k ></y >`},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, ls, rs string) {
		if len(ls)+len(rs) > 1<<16 {
			t.Skip("oversized input")
		}
		lefts, rights := itemForms(ls), itemForms(rs)
		for _, l := range lefts {
			for _, r := range rights {
				checkSealedTuple(t, l, r)
			}
		}
	})
}

// itemForms returns the forms an item parsed from s reaches a join in, or
// none when s does not parse: decoded (frozen, with its clean span as memo
// when it has one), sealed in a <data>, mutable, and frozen as an interior
// node of a larger freeze (no memo of its own).
func itemForms(s string) []*xmltree.Node {
	decoded, err := xmltree.DecodeString(s)
	if err != nil {
		return nil
	}
	forms := []*xmltree.Node{decoded, decoded.Clone()}
	if data, err := xmltree.DecodeString("<data>" + decoded.String() + "</data>"); err == nil {
		forms = append(forms, data.Kids()[0])
	}
	interior := decoded.Clone()
	xmltree.Elem("w", interior).Freeze()
	return append(forms, interior)
}

// checkSealedTuple holds the sealed tuple of l and r to the structural one.
func checkSealedTuple(t *testing.T, l, r *xmltree.Node) {
	t.Helper()
	want := newTuple("l", l, "r", r)
	got := sealedTuple("l", l, "r", r)
	memo, ok := got.FrozenSerialization()
	if !ok || !got.Frozen() || memo != want.String() {
		t.Fatalf("sealed tuple = %q (memo %v, frozen %v), want %q", memo, ok, got.Frozen(), want.String())
	}
	if got.ByteSize() != want.ByteSize() {
		t.Fatalf("sealed tuple ByteSize = %d, want %d", got.ByteSize(), want.ByteSize())
	}
	if !xmltree.Equal(got, want) {
		t.Fatalf("sealed tuple builds into %s, want %s", got.Indent(), want.Indent())
	}
}

// A reduced join emits the bytes the evaluated join's trees serialize to,
// tuple for tuple, on the decoded Fig. 3 catalog.
func TestReduceJoinMatchesEvaluate(t *testing.T) {
	sales, listings := decodedFig3(t, 40)
	join := algebra.JoinNamed("cd", "cd", "sale", "listing", algebra.Data(sales...), algebra.Data(listings...))
	want, err := Evaluate(join)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reduce(join)
	if err != nil || len(got.Docs) != len(want) || len(want) != 120 {
		t.Fatalf("Reduce = %d tuples, Evaluate %d, %v", len(got.Docs), len(want), err)
	}
	for i, d := range got.Docs {
		if memo, _ := d.FrozenSerialization(); memo != want[i].String() {
			t.Fatalf("tuple %d = %s, want %s", i, memo, want[i])
		}
	}
}
