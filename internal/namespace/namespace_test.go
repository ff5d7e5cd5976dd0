package namespace

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hierarchy"
)

// paperNamespace builds the Location × Merchandise namespace of paper Fig. 5.
func paperNamespace() *Namespace {
	loc := hierarchy.New("Location")
	for _, p := range []string{
		"USA/OR/Portland", "USA/OR/Eugene",
		"USA/WA/Seattle", "USA/WA/Vancouver",
		"USA/CA", "France",
	} {
		loc.MustAdd(p)
	}
	merch := hierarchy.New("Merchandise")
	for _, p := range []string{
		"Electronics/TV", "Electronics/VCR",
		"Furniture/Tables", "Furniture/Chairs",
		"Music/CDs", "SportingGoods/GolfClubs/Putters",
	} {
		merch.MustAdd(p)
	}
	return MustNew(loc, merch)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("empty namespace should error")
	}
	h := hierarchy.New("X")
	if _, err := New(h, h); err == nil {
		t.Fatal("duplicate dimension should error")
	}
	if _, err := New(nil); err == nil {
		t.Fatal("nil dimension should error")
	}
}

// cell reads a one-cell area over ns and returns its cell.
func cell(ns *Namespace, s string) Cell {
	return ns.MustParseArea(s).Cells[0]
}

func TestParseCell(t *testing.T) {
	ns := paperNamespace()
	a, err := ns.ParseArea("[USA/OR/Portland, Furniture/Chairs]")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != 1 || a.Cells[0].String() != "[USA/OR/Portland, Furniture/Chairs]" {
		t.Fatalf("area = %v", a)
	}
	if _, err := ns.ParseArea("[USA]"); err == nil {
		t.Fatal("wrong arity should error")
	}
	top := cell(ns, "[*, *]")
	if !top.Coords[0].IsTop() || !top.Coords[1].IsTop() {
		t.Fatalf("top cell = %v", top)
	}
}

func TestCellCoversOverlap(t *testing.T) {
	ns := paperNamespace()
	usaFurn := cell(ns, "[USA, Furniture]")
	pdxChairs := cell(ns, "[USA/OR/Portland, Furniture/Chairs]")
	pdxAll := cell(ns, "[USA/OR/Portland, *]")
	waTV := cell(ns, "[USA/WA, Electronics/TV]")

	if !usaFurn.Covers(pdxChairs) {
		t.Fatal("[USA,Furniture] must cover [Portland,Chairs]")
	}
	if pdxChairs.Covers(usaFurn) {
		t.Fatal("cover must not be symmetric here")
	}
	if !pdxAll.Overlaps(pdxChairs) || !pdxChairs.Overlaps(pdxAll) {
		t.Fatal("overlap expected")
	}
	if pdxAll.Overlaps(waTV) {
		t.Fatal("different cities should not overlap")
	}
	m, ok := pdxAll.Meet(usaFurn)
	if !ok || m.String() != "[USA/OR/Portland, Furniture]" {
		t.Fatalf("meet = %v %v", m, ok)
	}
}

// TestFig5 reproduces the cover/overlap facts depicted in paper Fig. 5:
// area (a) = Vancouver furniture + Portland furniture; area (b) = all items
// in Portland.
func TestFig5(t *testing.T) {
	ns := paperNamespace()
	a := NewArea(
		cell(ns, "[USA/WA/Vancouver, Furniture]"),
		cell(ns, "[USA/OR/Portland, Furniture]"),
	)
	b := NewArea(cell(ns, "[USA/OR/Portland, *]"))

	// (a) and (b) overlap on Portland furniture.
	if !a.Overlaps(b) {
		t.Fatal("areas (a) and (b) must overlap")
	}
	// Neither covers the other.
	if a.Covers(b) || b.Covers(a) {
		t.Fatal("neither area covers the other in Fig. 5")
	}
	// Their intersection is exactly Portland furniture.
	want := NewArea(cell(ns, "[USA/OR/Portland, Furniture]"))
	if got := a.Intersect(b); !got.Equal(want) {
		t.Fatalf("intersection = %v, want %v", got, want)
	}
	// A chairs query in Portland overlaps both.
	q := NewArea(cell(ns, "[USA/OR/Portland, Furniture/Chairs]"))
	if !a.Overlaps(q) || !b.Overlaps(q) {
		t.Fatal("chairs-in-Portland query must overlap both areas")
	}
	// ... and is covered by both.
	if !a.Covers(q) || !b.Covers(q) {
		t.Fatal("chairs-in-Portland query must be covered by both areas")
	}
	// A Seattle TV query overlaps only (neither).
	s := NewArea(cell(ns, "[USA/WA/Seattle, Electronics/TV]"))
	if a.Overlaps(s) || b.Overlaps(s) {
		t.Fatal("Seattle TVs must not overlap either area")
	}
}

func TestAreaNormalization(t *testing.T) {
	ns := paperNamespace()
	// The second cell is covered by the first and must be dropped.
	a := NewArea(
		cell(ns, "[USA, Furniture]"),
		cell(ns, "[USA/OR/Portland, Furniture/Chairs]"),
	)
	if len(a.Cells) != 1 {
		t.Fatalf("normalized cells = %v", a.Cells)
	}
	// Duplicates collapse.
	b := NewArea(
		cell(ns, "[USA, Furniture]"),
		cell(ns, "[USA, Furniture]"),
	)
	if len(b.Cells) != 1 {
		t.Fatalf("duplicate cells kept: %v", b.Cells)
	}
}

func TestAreaUnionIntersect(t *testing.T) {
	ns := paperNamespace()
	or := ns.MustParseArea("[USA/OR, *]")
	furn := ns.MustParseArea("[*, Furniture]")
	u := or.Union(furn)
	if len(u.Cells) != 2 {
		t.Fatalf("union = %v", u)
	}
	i := or.Intersect(furn)
	want := ns.MustParseArea("[USA/OR, Furniture]")
	if !i.Equal(want) {
		t.Fatalf("intersect = %v, want %v", i, want)
	}
	empty := or.Intersect(ns.MustParseArea("[France, *]"))
	if !empty.Empty() {
		t.Fatalf("disjoint intersect = %v", empty)
	}
}

func TestAreaCoversCell(t *testing.T) {
	ns := paperNamespace()
	a := ns.MustParseArea("[USA/OR, *] + [USA/WA, Furniture]")
	if !a.CoversCell(cell(ns, "[USA/OR/Portland, Music/CDs]")) {
		t.Fatal("should cover Portland CDs")
	}
	if a.CoversCell(cell(ns, "[USA/WA/Seattle, Music/CDs]")) {
		t.Fatal("should not cover Seattle CDs")
	}
}

func TestValidateAndGeneralize(t *testing.T) {
	ns := paperNamespace()
	good := ns.MustParseArea("[USA/OR, Furniture]")
	if err := ns.Validate(good); err != nil {
		t.Fatal(err)
	}
	bad := ns.MustParseArea("[USA/TX, Furniture]")
	if err := ns.Validate(bad); err == nil {
		t.Fatal("unknown category should fail validation")
	}
	gen := ns.Generalize(bad)
	want := ns.MustParseArea("[USA, Furniture]")
	if !gen.Equal(want) {
		t.Fatalf("generalize = %v, want %v", gen, want)
	}
	// Wrong arity cell: Validate errors.
	if err := ns.Validate(Area{Cells: []Cell{NewCell(hierarchy.Top)}}); err == nil {
		t.Fatal("wrong arity should fail validation")
	}
}

func TestURNRoundTrip(t *testing.T) {
	ns := paperNamespace()
	a := NewArea(
		cell(ns, "[USA/OR/Portland, Furniture]"),
		cell(ns, "[USA/WA/Vancouver, Furniture]"),
	)
	urn := EncodeURN(a)
	// The paper's example encoding, §3.4.
	want := "urn:InterestArea:(USA.OR.Portland,Furniture)+(USA.WA.Vancouver,Furniture)"
	if urn != want {
		t.Fatalf("urn = %q, want %q", urn, want)
	}
	back, err := DecodeURN(urn)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(a) {
		t.Fatalf("decode = %v, want %v", back, a)
	}
}

func TestURNTopAndErrors(t *testing.T) {
	ns := paperNamespace()
	a := NewArea(cell(ns, "[USA/OR/Portland, *]"))
	urn := EncodeURN(a)
	if urn != "urn:InterestArea:(USA.OR.Portland,*)" {
		t.Fatalf("urn = %q", urn)
	}
	back, err := DecodeURN(urn)
	if err != nil || !back.Equal(a) {
		t.Fatalf("decode: %v %v", back, err)
	}
	for _, bad := range []string{
		"urn:Other:x",
		"urn:InterestArea:",
		"urn:InterestArea:USA.OR",
		"urn:InterestArea:(USA..OR,*)",
	} {
		if _, err := DecodeURN(bad); err == nil {
			t.Errorf("DecodeURN(%q): want error", bad)
		}
	}
	if IsAreaURN("urn:ForSale:Portland-CDs") {
		t.Fatal("named URN misidentified as area URN")
	}
}

func randCell(r *rand.Rand, ns *Namespace) Cell {
	pick := func(h *hierarchy.Hierarchy) hierarchy.Path {
		all := h.All()
		i := r.Intn(len(all) + 1)
		if i == len(all) {
			return hierarchy.Top
		}
		return all[i]
	}
	dims := ns.Dimensions()
	coords := make([]hierarchy.Path, len(dims))
	for i, d := range dims {
		coords[i] = pick(d)
	}
	return Cell{Coords: coords}
}

func randArea(r *rand.Rand, ns *Namespace) Area {
	n := 1 + r.Intn(3)
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = randCell(r, ns)
	}
	return NewArea(cells...)
}

// Property: URN encode/decode is the identity on normalized areas.
func TestPropertyURNRoundTrip(t *testing.T) {
	ns := paperNamespace()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randArea(r, ns)
		back, err := DecodeURN(EncodeURN(a))
		return err == nil && back.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Covers implies Overlaps for non-empty areas.
func TestPropertyCoversImpliesOverlaps(t *testing.T) {
	ns := paperNamespace()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randArea(r, ns), randArea(r, ns)
		if a.Covers(b) && !b.Empty() && !a.Overlaps(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Intersect is covered by both operands; Union covers both.
func TestPropertyIntersectUnion(t *testing.T) {
	ns := paperNamespace()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randArea(r, ns), randArea(r, ns)
		i := a.Intersect(b)
		if !a.Covers(i) || !b.Covers(i) {
			return false
		}
		u := a.Union(b)
		return u.Covers(a) && u.Covers(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: overlap is symmetric.
func TestPropertyOverlapSymmetric(t *testing.T) {
	ns := paperNamespace()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randArea(r, ns), randArea(r, ns)
		return a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDimIndex: a cell's coordinate positions follow the order in which the
// namespace declares its dimensions.
func TestDimIndex(t *testing.T) {
	ns := paperNamespace()
	dims := ns.Dimensions()
	if len(dims) != 2 || dims[0].Name() != "Location" || dims[1].Name() != "Merchandise" {
		t.Fatal("dimension order broken")
	}
	c := cell(ns, "[USA/OR, Furniture]")
	if c.Coords[0].String() != "USA/OR" || c.Coords[1].String() != "Furniture" {
		t.Fatalf("cell coordinates out of dimension order: %v", c)
	}
}

// TestParseAreaWithoutNamespace: the namespace-free reader is the namespace
// reader minus the coordinate-count check.
func TestParseAreaWithoutNamespace(t *testing.T) {
	ns := paperNamespace()
	for _, src := range []string{"[USA/OR, *] + [France, Music]", "USA, Furniture", "[*, *]"} {
		a, err := ParseArea(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if want := ns.MustParseArea(src); !a.Equal(want) {
			t.Fatalf("%q: ParseArea = %v, ns.ParseArea = %v", src, a, want)
		}
	}
	if a, err := ParseArea("[USA/OR] + [a, b, c]"); err != nil || len(a.Cells) != 2 {
		t.Fatalf("any arity without a namespace: %v %v", a, err)
	}
	if _, err := ns.ParseArea("[USA/OR] + [*, *]"); err == nil {
		t.Fatal("ns.ParseArea must check the coordinate count")
	}
	for _, bad := range []string{"", " \t", "[USA//OR, *]", "[*/x, *]"} {
		if _, err := ParseArea(bad); err == nil {
			t.Errorf("ParseArea(%q): want error", bad)
		}
	}
}

func TestAreaString(t *testing.T) {
	ns := paperNamespace()
	a := ns.MustParseArea("[USA/OR, *] + [France, Furniture]")
	s := a.String()
	if !strings.Contains(s, "France") || !strings.Contains(s, "USA/OR") {
		t.Fatalf("area string = %q", s)
	}
}

func BenchmarkAreaOverlaps(b *testing.B) {
	ns := paperNamespace()
	a1 := ns.MustParseArea("[USA/OR, *] + [USA/WA, Furniture] + [France, Music]")
	a2 := ns.MustParseArea("[USA/WA/Vancouver, Furniture/Chairs]")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !a1.Overlaps(a2) {
			b.Fatal("expected overlap")
		}
	}
}
