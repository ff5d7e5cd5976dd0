package hierarchy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParsePath(t *testing.T) {
	p, err := ParsePath("USA/OR/Portland")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "USA/OR/Portland" || p.Depth() != 3 || p.Leaf() != "Portland" {
		t.Fatalf("parsed %v depth=%d leaf=%s", p, p.Depth(), p.Leaf())
	}
	top, err := ParsePath("*")
	if err != nil || !top.IsTop() {
		t.Fatalf("top parse: %v %v", top, err)
	}
	if top.String() != "*" {
		t.Fatalf("top string = %q", top.String())
	}
	for _, bad := range []string{"USA//Portland", "a/*", "*/b", "a//"} {
		if _, err := ParsePath(bad); err == nil {
			t.Errorf("ParsePath(%q): want error", bad)
		}
	}
}

func TestCovers(t *testing.T) {
	usa := MustParsePath("USA")
	or := MustParsePath("USA/OR")
	pdx := MustParsePath("USA/OR/Portland")
	eug := MustParsePath("USA/OR/Eugene")
	fr := MustParsePath("France")

	cases := []struct {
		a, b Path
		want bool
	}{
		{Top, pdx, true},
		{usa, pdx, true},
		{or, pdx, true},
		{pdx, pdx, true},
		{pdx, or, false},
		{eug, pdx, false},
		{fr, pdx, false},
		{pdx, Top, false},
	}
	for _, c := range cases {
		if got := c.a.Covers(c.b); got != c.want {
			t.Errorf("%v covers %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestOverlapsAndMeet(t *testing.T) {
	or := MustParsePath("USA/OR")
	pdx := MustParsePath("USA/OR/Portland")
	wa := MustParsePath("USA/WA")
	if !or.Overlaps(pdx) || !pdx.Overlaps(or) {
		t.Fatal("ancestor/descendant must overlap")
	}
	if or.Overlaps(wa) {
		t.Fatal("siblings must not overlap")
	}
	m, ok := or.Meet(pdx)
	if !ok || !m.Equal(pdx) {
		t.Fatalf("Meet = %v, %v", m, ok)
	}
	if _, ok := or.Meet(wa); ok {
		t.Fatal("disjoint meet should fail")
	}
}

func TestParentChildTruncate(t *testing.T) {
	pdx := MustParsePath("USA/OR/Portland")
	if pdx.Parent().String() != "USA/OR" {
		t.Fatalf("parent = %v", pdx.Parent())
	}
	if !MustParsePath("USA").Parent().IsTop() {
		t.Fatal("parent of depth-1 must be top")
	}
	if !Top.Parent().IsTop() {
		t.Fatal("parent of top is top")
	}
	if got := pdx.Truncate(2).String(); got != "USA/OR" {
		t.Fatalf("truncate = %v", got)
	}
	if got := pdx.Truncate(10); !got.Equal(pdx) {
		t.Fatalf("truncate beyond depth changed path: %v", got)
	}
	if got := pdx.Truncate(-1); !got.IsTop() {
		t.Fatalf("truncate(-1) = %v", got)
	}
	if got := MustParsePath("USA/OR").Child("Portland"); !got.Equal(pdx) {
		t.Fatalf("child = %v", got)
	}
}

func TestCompareOrdering(t *testing.T) {
	a := MustParsePath("USA")
	b := MustParsePath("USA/OR")
	c := MustParsePath("USA/WA")
	if a.Compare(b) >= 0 || b.Compare(c) >= 0 || b.Compare(b) != 0 {
		t.Fatal("compare ordering broken")
	}
	if Top.Compare(a) >= 0 {
		t.Fatal("top must sort first")
	}
}

func newLocation() *Hierarchy {
	h := New("Location")
	for _, p := range []string{
		"USA/OR/Portland", "USA/OR/Eugene",
		"USA/WA/Seattle", "USA/WA/Vancouver",
		"USA/CA", "France",
	} {
		h.MustAdd(p)
	}
	return h
}

func TestHierarchyContainsChildren(t *testing.T) {
	h := newLocation()
	if !h.Contains(MustParsePath("USA/OR")) {
		t.Fatal("intermediate category must exist")
	}
	if !h.Contains(Top) {
		t.Fatal("top must exist")
	}
	if h.Contains(MustParsePath("USA/TX")) {
		t.Fatal("unknown category should not exist")
	}
	kids, err := h.Children(MustParsePath("USA"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"USA/CA", "USA/OR", "USA/WA"}
	if len(kids) != len(want) {
		t.Fatalf("children = %v", kids)
	}
	for i := range want {
		if kids[i].String() != want[i] {
			t.Fatalf("children[%d] = %v, want %v", i, kids[i], want[i])
		}
	}
	if _, err := h.Children(MustParsePath("Narnia")); err == nil {
		t.Fatal("children of unknown category should error")
	}
}

func TestGeneralize(t *testing.T) {
	h := newLocation()
	got := h.Generalize(MustParsePath("USA/OR/Beaverton"))
	if got.String() != "USA/OR" {
		t.Fatalf("generalize = %v", got)
	}
	got = h.Generalize(MustParsePath("Atlantis/Deep"))
	if !got.IsTop() {
		t.Fatalf("generalize unknown root = %v", got)
	}
	known := MustParsePath("USA/OR/Portland")
	if !h.Generalize(known).Equal(known) {
		t.Fatal("known path must generalize to itself")
	}
}

// TestKnownDepth pins the truncation point Generalize uses — exposed so
// learned-routing absorption can tell how much precision a generalization
// costs before committing it.
func TestKnownDepth(t *testing.T) {
	h := newLocation()
	cases := []struct {
		path string
		want int
	}{
		{"USA/OR/Portland", 3}, // fully known
		{"USA/OR/Beaverton", 2},
		{"USA/TX/Austin", 1},
		{"Atlantis/Deep", 0},
		{"*", 0},
	}
	for _, c := range cases {
		if got := h.KnownDepth(MustParsePath(c.path)); got != c.want {
			t.Fatalf("KnownDepth(%s) = %d, want %d", c.path, got, c.want)
		}
		// Generalize ≡ Truncate(KnownDepth) — the two stay in lockstep.
		p := MustParsePath(c.path)
		if !h.Generalize(p).Equal(p.Truncate(h.KnownDepth(p))) {
			t.Fatalf("Generalize(%s) diverged from Truncate(KnownDepth)", c.path)
		}
	}
}

func TestLeavesAllSize(t *testing.T) {
	h := newLocation()
	leaves := h.Leaves()
	if len(leaves) != 6 { // Portland, Eugene, Seattle, Vancouver, CA, France
		t.Fatalf("leaves = %v", leaves)
	}
	if h.Size() != 9 { // USA,OR,WA,CA,France + 4 cities
		t.Fatalf("size = %d", h.Size())
	}
	if len(h.All()) != h.Size() {
		t.Fatalf("All() = %d, Size() = %d", len(h.All()), h.Size())
	}
}

func randPath(r *rand.Rand) Path {
	segs := []string{"USA", "OR", "Portland", "WA", "Seattle", "France"}
	depth := r.Intn(4)
	out := make([]string, depth)
	for i := range out {
		out[i] = segs[r.Intn(len(segs))]
	}
	return NewPath(out...)
}

// Property: Covers is a partial order — reflexive, antisymmetric (up to
// Equal), transitive.
func TestPropertyCoversPartialOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randPath(r), randPath(r), randPath(r)
		if !a.Covers(a) {
			return false
		}
		if a.Covers(b) && b.Covers(a) && !a.Equal(b) {
			return false
		}
		if a.Covers(b) && b.Covers(c) && !a.Covers(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: string round trip.
func TestPropertyPathRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPath(r)
		q, err := ParsePath(p.String())
		return err == nil && p.Equal(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCovers(b *testing.B) {
	p := MustParsePath("USA/OR")
	q := MustParsePath("USA/OR/Portland")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !p.Covers(q) {
			b.Fatal("cover failed")
		}
	}
}
