package algebra

import (
	"testing"

	"repro/internal/xmltree"
)

// TestFig4aPushSelect reproduces the rewrite of paper Fig. 4(a): after the
// ForSale URN resolves to a union of two seller URLs, the select pushes
// through the union.
func TestFig4aPushSelect(t *testing.T) {
	u := Union(URL("http://10.1.2.3:9020/", ""), URL("http://10.2.3.4:9020/", ""))
	root := Display(Select(MustParsePredicate("price < 10"), u))
	n := PushSelectThroughUnion(root)
	if n != 1 {
		t.Fatalf("rewrites = %d, want 1", n)
	}
	un := root.Children[0]
	if un.Kind != KindUnion || len(un.Children) != 2 {
		t.Fatalf("expected union at root child, got %s", un)
	}
	for _, c := range un.Children {
		if c.Kind != KindSelect || c.Children[0].Kind != KindURL {
			t.Fatalf("expected select(url), got %s", c)
		}
	}
}

func TestPushSelectAtRoot(t *testing.T) {
	// A select directly at the subtree root is handled via the wrapper.
	root := Select(MustParsePredicate("price < 10"), Union(Data(), Data()))
	n := PushSelectThroughUnion(root)
	// The wrapper rewrites its child, but callers keep their own pointer;
	// rewriting at the true root needs the caller to re-read. Count must
	// still be 0 here because the wrapper's replacement is invisible.
	_ = n
	// Instead: wrap in display, the usual plan shape.
	root2 := Display(Select(MustParsePredicate("price < 10"), Or(Data(), Data())))
	if got := PushSelectThroughUnion(root2); got != 1 {
		t.Fatalf("rewrites = %d, want 1", got)
	}
	if root2.Children[0].Kind != KindOr {
		t.Fatal("select did not push through or")
	}
}

func TestFlattenUnions(t *testing.T) {
	u := Union(Union(Data(), Data()), Data(), Union(Union(Data()), Data()))
	root := Display(u)
	FlattenUnions(root)
	if len(u.Children) != 5 {
		t.Fatalf("flattened children = %d, want 5", len(u.Children))
	}
	for _, c := range u.Children {
		if c.Kind != KindData {
			t.Fatalf("unexpected child %s", c)
		}
	}
	// Or flattens with Or but not with Union.
	o := Or(Or(Data(), Data()), Union(Data(), Data()))
	root2 := Display(o)
	FlattenUnions(root2)
	if len(o.Children) != 3 {
		t.Fatalf("or children = %d, want 3", len(o.Children))
	}
}

func TestOrChoicePolicies(t *testing.T) {
	// Alternative 0: one site, stale 30. Alternative 1: two sites, current.
	a0 := URL("http://r/", "")
	a0.SetStaleness(30)
	a1 := Union(URL("http://r/", ""), URL("http://s/", ""))
	or := Or(a0, a1)
	root := Display(or)

	few := root.Clone()
	if n := OrChoice(few, PickFewestSites); n != 1 {
		t.Fatalf("or-choices = %d", n)
	}
	if few.Children[0].Kind != KindURL {
		t.Fatalf("fewest-sites picked %s", few.Children[0])
	}

	cur := root.Clone()
	OrChoice(cur, PickMostCurrent)
	if cur.Children[0].Kind != KindUnion {
		t.Fatalf("most-current picked %s", cur.Children[0])
	}

	// pick returning out of range leaves the Or in place.
	keep := root.Clone()
	OrChoice(keep, func([]*Node) int { return -1 })
	if keep.Children[0].Kind != KindOr {
		t.Fatal("out-of-range pick must not rewrite")
	}
}

func TestAbsorbJoin(t *testing.T) {
	a := Data(xmltree.MustParse(`<a><k1>1</k1><k2>x</k2></a>`))
	x := URN("urn:X")
	b := Data(xmltree.MustParse(`<b><k2>x</k2></b>`))
	inner := JoinNamed("k1", "k1", "a", "x", a, x)
	outer := JoinNamed("a/k2", "k2", "ax", "b", inner, b)

	rw, err := AbsorbJoin(outer)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Kind != KindJoin || rw.Children[0].Kind != KindJoin {
		t.Fatalf("rewritten = %s", rw)
	}
	newInner := rw.Children[0]
	if newInner.LeftKey != "k2" || newInner.RightKey != "k2" {
		t.Fatalf("inner keys = %s=%s", newInner.LeftKey, newInner.RightKey)
	}
	if newInner.Children[0].Kind != KindData || newInner.Children[1].Kind != KindData {
		t.Fatalf("inner join must pair the local inputs: %s", newInner)
	}
	if rw.LeftKey != "a/k1" || rw.RightKey != "k1" {
		t.Fatalf("outer keys = %s=%s", rw.LeftKey, rw.RightKey)
	}
	if rw.Children[1].Kind != KindURN {
		t.Fatal("remote input must move to the outer join")
	}

	// Shape mismatches are reported.
	if _, err := AbsorbJoin(Select(True{}, Data())); err == nil {
		t.Fatal("non-join must error")
	}
	if _, err := AbsorbJoin(JoinNamed("x/k", "k", "l", "r", Data(), Data())); err == nil {
		t.Fatal("non-join left input must error")
	}
	bad := JoinNamed("b/k2", "k2", "ax", "b", inner.Clone(), b.Clone())
	if _, err := AbsorbJoin(bad); err == nil {
		t.Fatal("outer key not addressing A component must error")
	}
}

func TestEstimateCard(t *testing.T) {
	d3 := Data(xmltree.MustParse(`<i/>`), xmltree.MustParse(`<i/>`), xmltree.MustParse(`<i/>`))
	if got := EstimateCard(d3); got != 3 {
		t.Fatalf("data card = %d", got)
	}
	if got := EstimateCard(Select(True{}, d3.Clone())); got != 1 {
		t.Fatalf("select card = %d (selectivity 1/3)", got)
	}
	if got := EstimateCard(URN("urn:X")); got != -1 {
		t.Fatalf("urn card = %d", got)
	}
	ann := URN("urn:X")
	ann.SetCard(500)
	if got := EstimateCard(ann); got != 500 {
		t.Fatalf("annotated card = %d", got)
	}
	if got := EstimateCard(Union(d3.Clone(), d3.Clone())); got != 6 {
		t.Fatalf("union card = %d", got)
	}
	if got := EstimateCard(Or(d3.Clone(), d3.Clone())); got != 3 {
		t.Fatalf("or card = %d (alternatives hold same data)", got)
	}
	if got := EstimateCard(Count(d3.Clone())); got != 1 {
		t.Fatalf("count card = %d", got)
	}
	if got := EstimateCard(TopN(2, "x", false, d3.Clone())); got != 2 {
		t.Fatalf("topn card = %d", got)
	}
	j := JoinNamed("k", "k", "l", "r", d3.Clone(), Data(xmltree.MustParse(`<i/>`)))
	if got := EstimateCard(j); got != 3 {
		t.Fatalf("join card = %d", got)
	}
	if got := EstimateCard(Display(d3.Clone())); got != 3 {
		t.Fatalf("display card = %d", got)
	}
	if got := EstimateCard(Union(d3.Clone(), URN("urn:X"))); got != -1 {
		t.Fatalf("union with unknown = %d", got)
	}
}
