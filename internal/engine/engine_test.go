package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

func items(ss ...string) []*xmltree.Node {
	out := make([]*xmltree.Node, len(ss))
	for i, s := range ss {
		out[i] = xmltree.MustParse(s)
	}
	return out
}

func cds() *algebra.Node {
	return algebra.Data(items(
		`<sale><cd>Blue Train</cd><price>8</price></sale>`,
		`<sale><cd>Kind of Blue</cd><price>12</price></sale>`,
		`<sale><cd>Giant Steps</cd><price>9</price></sale>`,
	)...)
}

func listings() *algebra.Node {
	return algebra.Data(items(
		`<listing><cd>Blue Train</cd><song>Locomotion</song></listing>`,
		`<listing><cd>Blue Train</cd><song>Moment's Notice</song></listing>`,
		`<listing><cd>Giant Steps</cd><song>Naima</song></listing>`,
		`<listing><cd>Milestones</cd><song>Dr. Jekyll</song></listing>`,
	)...)
}

func TestSelect(t *testing.T) {
	n := algebra.Select(algebra.MustParsePredicate("price < 10"), cds())
	got, err := Evaluate(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("selected %d, want 2", len(got))
	}
}

func TestProject(t *testing.T) {
	n := algebra.Project("cheap", []string{"cd"}, algebra.Select(algebra.MustParsePredicate("price < 10"), cds()))
	got, err := Evaluate(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "cheap" || got[0].Value("cd") != "Blue Train" {
		t.Fatalf("projected: %v", got)
	}
	// Missing fields are simply absent.
	n2 := algebra.Project("p", []string{"nope", "price"}, cds())
	got2, _ := Evaluate(n2)
	if len(got2[0].Elements()) != 1 {
		t.Fatalf("missing field should be dropped: %s", got2[0])
	}
}

func TestProjectAttrField(t *testing.T) {
	d := algebra.Data(items(`<i><price currency="USD">7</price></i>`)...)
	n := algebra.Project("p", []string{"price/@currency"}, d)
	got, err := Evaluate(n)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Value("currency") != "USD" {
		t.Fatalf("attr projection: %s", got[0])
	}
}

func TestJoin(t *testing.T) {
	j := algebra.JoinNamed("cd", "cd", "sale", "listing", cds(), listings())
	got, err := Evaluate(j)
	if err != nil {
		t.Fatal(err)
	}
	// Blue Train matches 2 listings, Giant Steps 1, Kind of Blue 0.
	if len(got) != 3 {
		t.Fatalf("join output = %d, want 3", len(got))
	}
	for _, tup := range got {
		if tup.Value("sale/cd") != tup.Value("listing/cd") {
			t.Fatalf("join key mismatch in %s", tup)
		}
	}
}

// TestJoinKeepsLeadingText: an item's text before its first field is part of
// the item. It rides into the join component, through a projection of that
// component, and out in the serialization — for decoded (frozen) and parsed
// (mutable) inputs alike.
func TestJoinKeepsLeadingText(t *testing.T) {
	const sale = `<sale>note <cd>Blue Train</cd><price>13</price> tail</sale>`
	const listing = `<listing><cd>Blue Train</cd><song>Locomotion</song></listing>`
	const want = `<tuple><l>note <cd>Blue Train</cd><price>13</price> tail</l>` +
		`<r><cd>Blue Train</cd><song>Locomotion</song></r></tuple>`
	for name, parse := range map[string]func(string) (*xmltree.Node, error){
		"decoded": xmltree.DecodeString, "parsed": xmltree.ParseString,
	} {
		l, err := parse(sale)
		if err != nil {
			t.Fatal(err)
		}
		r, err := parse(listing)
		if err != nil {
			t.Fatal(err)
		}
		j := algebra.JoinNamed("cd", "cd", "l", "r", algebra.Data(l), algebra.Data(r))
		got, err := Evaluate(j)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].String() != want {
			t.Fatalf("%s: join = %v, want %s", name, got, want)
		}
		if l.String() != sale {
			t.Fatalf("%s: join changed its input: %s", name, l)
		}
		got, err = Evaluate(algebra.Project("p", []string{"l", "r/song"}, j))
		if err != nil {
			t.Fatal(err)
		}
		wantP := `<p><l>note <cd>Blue Train</cd><price>13</price> tail</l><song>Locomotion</song></p>`
		if len(got) != 1 || got[0].String() != wantP {
			t.Fatalf("%s: projection = %v, want %s", name, got, wantP)
		}
		rt, err := xmltree.DecodeString(got[0].String())
		if err != nil || !xmltree.Equal(rt, got[0]) {
			t.Fatalf("%s: projection does not survive the wire: %v, %s", name, err, rt)
		}
	}
}

func TestJoinOrientationWithSwappedBuild(t *testing.T) {
	// Left side smaller than right and vice versa must both keep component
	// orientation (left input under LeftName).
	small := algebra.Data(items(`<a><k>1</k><tag>left</tag></a>`)...)
	big := algebra.Data(items(
		`<b><k>1</k><tag>right1</tag></b>`,
		`<b><k>1</k><tag>right2</tag></b>`,
		`<b><k>2</k><tag>rightX</tag></b>`,
	)...)
	for _, tc := range []struct{ l, r *algebra.Node }{{small, big}, {big.Clone(), small.Clone()}} {
		j := algebra.JoinNamed("k", "k", "L", "R", tc.l, tc.r)
		got, err := Evaluate(j)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("join output = %d, want 2", len(got))
		}
		for _, tup := range got {
			lTag, rTag := tup.Value("L/tag"), tup.Value("R/tag")
			if tc.l == small {
				if lTag != "left" || rTag == "left" {
					t.Fatalf("orientation broken: L=%q R=%q", lTag, rTag)
				}
			} else {
				if rTag != "left" || lTag == "left" {
					t.Fatalf("orientation broken: L=%q R=%q", lTag, rTag)
				}
			}
		}
	}
}

func TestJoinMissingKeysSkipped(t *testing.T) {
	l := algebra.Data(items(`<a><k>1</k></a>`, `<a><nokey/></a>`)...)
	r := algebra.Data(items(`<b><k>1</k></b>`, `<b><other/></b>`)...)
	got, err := Evaluate(algebra.Join("k", "k", l, r))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("join output = %d, want 1", len(got))
	}
}

func TestNestedJoinPathAddressing(t *testing.T) {
	songs := algebra.Data(items(`<song><title>Naima</title></song>`)...)
	inner := algebra.JoinNamed("cd", "cd", "sale", "listing", cds(), listings())
	outer := algebra.JoinNamed("title", "listing/song", "fav", "match", songs, inner)
	got, err := Evaluate(outer)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("outer join = %d, want 1", len(got))
	}
	if got[0].Value("match/sale/cd") != "Giant Steps" {
		t.Fatalf("nested addressing failed: %s", got[0].Indent())
	}
}

func TestUnionAndOr(t *testing.T) {
	u := algebra.Union(cds(), listings())
	got, err := Evaluate(u)
	if err != nil || len(got) != 7 {
		t.Fatalf("union = %d, %v", len(got), err)
	}
	o := algebra.Or(cds(), listings())
	got, err = Evaluate(o)
	if err != nil || len(got) != 3 {
		t.Fatalf("or must evaluate first alternative: %d, %v", len(got), err)
	}
}

func TestDifference(t *testing.T) {
	l := algebra.Data(items(`<i>1</i>`, `<i>2</i>`, `<i>3</i>`)...)
	r := algebra.Data(items(`<i>2</i>`)...)
	got, err := Evaluate(algebra.Difference(l, r))
	if err != nil || len(got) != 2 {
		t.Fatalf("difference = %d, %v", len(got), err)
	}
}

func TestCount(t *testing.T) {
	got, err := Evaluate(algebra.Count(cds()))
	if err != nil || len(got) != 1 {
		t.Fatalf("count: %v %v", got, err)
	}
	if got[0].InnerText() != "3" {
		t.Fatalf("count = %s", got[0])
	}
}

func TestTopN(t *testing.T) {
	asc := algebra.TopN(2, "price", false, cds())
	got, err := Evaluate(asc)
	if err != nil || len(got) != 2 {
		t.Fatalf("topn: %v %v", got, err)
	}
	if got[0].Value("price") != "8" || got[1].Value("price") != "9" {
		t.Fatalf("asc order wrong: %v", got)
	}
	desc := algebra.TopN(1, "price", true, cds())
	got, _ = Evaluate(desc)
	if got[0].Value("price") != "12" {
		t.Fatalf("desc order wrong: %v", got)
	}
	// n larger than input returns everything.
	all := algebra.TopN(10, "price", false, cds())
	got, _ = Evaluate(all)
	if len(got) != 3 {
		t.Fatalf("topn overshoot = %d", len(got))
	}
}

func TestUnresolvedLeavesError(t *testing.T) {
	if _, err := Evaluate(algebra.URL("http://x/", "")); err == nil {
		t.Fatal("url leaf must error")
	}
	if _, err := Evaluate(algebra.URN("urn:X")); err == nil {
		t.Fatal("urn leaf must error")
	}
	if _, err := Evaluate(algebra.Select(algebra.True{}, algebra.URN("urn:X"))); err == nil {
		t.Fatal("nested urn leaf must error")
	}
}

func TestLocallyEvaluable(t *testing.T) {
	if !LocallyEvaluable(algebra.Select(algebra.True{}, cds())) {
		t.Fatal("data-only plan must be evaluable")
	}
	if LocallyEvaluable(algebra.Join("a", "b", cds(), algebra.URN("urn:X"))) {
		t.Fatal("plan with urn must not be evaluable")
	}
}

func TestReduce(t *testing.T) {
	n := algebra.Select(algebra.MustParsePredicate("price < 10"), cds())
	d, err := Reduce(n)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != algebra.KindData || len(d.Docs) != 2 || d.Card() != 2 {
		t.Fatalf("reduce = %s card=%d", d, d.Card())
	}
}

func TestDisplayPassThrough(t *testing.T) {
	got, err := Evaluate(algebra.Display(cds()))
	if err != nil || len(got) != 3 {
		t.Fatalf("display: %d %v", len(got), err)
	}
}

// Property: select(p) ∪ select(not p) is a permutation-free partition of the
// input (here: sizes add up and each item appears on exactly one side).
func TestPropertySelectPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		docs := make([]*xmltree.Node, n)
		for i := range docs {
			docs[i] = xmltree.MustParse(fmt.Sprintf(`<i><p>%d</p></i>`, r.Intn(20)))
		}
		p := algebra.MustParsePredicate("p < 10")
		pos, err1 := Evaluate(algebra.Select(p, algebra.Data(docs...)))
		neg, err2 := Evaluate(algebra.Select(algebra.Not{P: p}, algebra.Data(docs...)))
		return err1 == nil && err2 == nil && len(pos)+len(neg) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: join cardinality equals the sum over keys of |L_k|*|R_k|.
func TestPropertyJoinCardinality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nl, nr := 1+r.Intn(20), 1+r.Intn(20)
		lCount := map[int]int{}
		rCount := map[int]int{}
		var ld, rd []*xmltree.Node
		for i := 0; i < nl; i++ {
			k := r.Intn(5)
			lCount[k]++
			ld = append(ld, xmltree.MustParse(fmt.Sprintf(`<l><k>%d</k></l>`, k)))
		}
		for i := 0; i < nr; i++ {
			k := r.Intn(5)
			rCount[k]++
			rd = append(rd, xmltree.MustParse(fmt.Sprintf(`<r><k>%d</k></r>`, k)))
		}
		want := 0
		for k, c := range lCount {
			want += c * rCount[k]
		}
		got, err := Evaluate(algebra.Join("k", "k", algebra.Data(ld...), algebra.Data(rd...)))
		return err == nil && len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the absorption rewrite preserves the joined item combinations.
func TestPropertyAbsorbJoinEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func(tag string, n, keys int) *algebra.Node {
			docs := make([]*xmltree.Node, n)
			for i := range docs {
				docs[i] = xmltree.MustParse(fmt.Sprintf(
					`<%s><k1>%d</k1><k2>%d</k2><id>%s%d</id></%s>`,
					tag, r.Intn(keys), r.Intn(keys), tag, i, tag))
			}
			return algebra.Data(docs...)
		}
		a, x, b := mk("a", 1+r.Intn(8), 3), mk("x", 1+r.Intn(8), 3), mk("b", 1+r.Intn(8), 3)
		inner := algebra.JoinNamed("k1", "k1", "a", "x", a, x)
		outer := algebra.JoinNamed("a/k2", "k2", "ax", "b", inner, b)
		rw, err := algebra.AbsorbJoin(outer)
		if err != nil {
			return false
		}
		origTuples, err1 := Evaluate(outer)
		rwTuples, err2 := Evaluate(rw)
		if err1 != nil || err2 != nil {
			return false
		}
		// Compare the multisets of (a.id, x.id, b.id) triples.
		key := func(aid, xid, bid string) string { return aid + "|" + xid + "|" + bid }
		orig := map[string]int{}
		for _, tp := range origTuples {
			orig[key(tp.Value("ax/a/id"), tp.Value("ax/x/id"), tp.Value("b/id"))]++
		}
		rws := map[string]int{}
		for _, tp := range rwTuples {
			rws[key(tp.Value("ab/a/id"), tp.Value("x/id"), tp.Value("ab/b/id"))]++
		}
		if len(orig) != len(rws) {
			return false
		}
		for k, v := range orig {
			if rws[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHashJoin(b *testing.B) {
	var ld, rd []*xmltree.Node
	for i := 0; i < 1000; i++ {
		ld = append(ld, xmltree.MustParse(fmt.Sprintf(`<l><k>%d</k><v>left%d</v></l>`, i%100, i)))
		rd = append(rd, xmltree.MustParse(fmt.Sprintf(`<r><k>%d</k><v>right%d</v></r>`, i%100, i)))
	}
	j := algebra.Join("k", "k", algebra.Data(ld...), algebra.Data(rd...))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Evaluate(j)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 10000 {
			b.Fatalf("join output = %d", len(out))
		}
	}
}

// decodedFig3 is the Fig. 3 catalog of n CDs as a peer holds it: each
// collection decoded from one frame, so items are frozen and slab-backed.
func decodedFig3(b testing.TB, n int) (sales, listings []*xmltree.Node) {
	decode := func(items []*xmltree.Node) []*xmltree.Node {
		frame := "<items>"
		for _, it := range items {
			frame += it.String()
		}
		doc, err := xmltree.DecodeString(frame + "</items>")
		if err != nil {
			b.Fatal(err)
		}
		return doc.Children
	}
	sales, listings = workload.CDCatalog(1, n)
	return decode(sales), decode(listings)
}

// BenchmarkJoinReduce is the track server's hop of the Fig. 3 join: kept of
// 200 decoded CDs joined with their 600 decoded listings, reduced, and the
// result staged into a pooled frame encoder — with the collector on, unlike
// the bench harness's engine.reduce_us replay, so allocation savings show.
func BenchmarkJoinReduce(b *testing.B) {
	sales, listings := decodedFig3(b, 200)
	for _, kept := range []int{40, 100, 160} {
		join := algebra.JoinNamed("cd", "cd", "sale", "listing",
			algebra.Data(sales[:kept]...), algebra.Data(listings...))
		b.Run(fmt.Sprintf("kept=%d", kept), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				out, err := Reduce(join)
				if err != nil || len(out.Docs) != 3*kept {
					b.Fatalf("join = %d tuples, %v", len(out.Docs), err)
				}
				enc := xmltree.GetFrameEncoder()
				for _, d := range out.Docs {
					enc.Node(d)
				}
				enc.Release()
			}
		})
	}
}

// BenchmarkJoinNested is E1's song join on the same decoded catalog: one
// favorite song per four of 100 kept CDs, joined on listing/song over the CD
// join, reduced and staged. Only the outer join is the reduced root, so the
// inner join, whose tuples the outer one reads, builds them as trees.
func BenchmarkJoinNested(b *testing.B) {
	sales, listings := decodedFig3(b, 200)
	var favorites []*xmltree.Node
	for i := 0; i < 100; i += 4 {
		favorites = append(favorites, xmltree.Elem("song", xmltree.ElemText("title", fmt.Sprintf("Track 1 of Album %03d", i))).Freeze())
	}
	cdJoin := algebra.JoinNamed("cd", "cd", "sale", "listing",
		algebra.Data(sales[:100]...), algebra.Data(listings...))
	songJoin := algebra.JoinNamed("title", "listing/song", "fav", "match",
		algebra.Data(favorites...), cdJoin)
	b.ReportAllocs()
	for b.Loop() {
		out, err := Reduce(songJoin)
		if err != nil || len(out.Docs) != len(favorites) {
			b.Fatalf("song join = %d tuples, %v", len(out.Docs), err)
		}
		enc := xmltree.GetFrameEncoder()
		for _, d := range out.Docs {
			enc.Node(d)
		}
		enc.Release()
	}
}

// BenchmarkSelectEval prices one selection over a seller-sized (24) and a
// payload-sized (200) collection, on a plain field and on a field inside a
// joined tuple's component.
func BenchmarkSelectEval(b *testing.B) {
	for _, n := range []int{24, 200} {
		var sales, tuples []*xmltree.Node
		for i := 0; i < n; i++ {
			sales = append(sales, xmltree.MustParse(fmt.Sprintf(
				`<sale><cd>Album %02d</cd><price>%d</price></sale>`, i, 3+i%40)))
			tuples = append(tuples, xmltree.MustParse(fmt.Sprintf(
				`<tuple><sale><cd>Album %02d</cd><price>%d</price></sale><listing><cd>Album %02d</cd><song>Track</song></listing></tuple>`,
				i, 3+i%40, i)))
		}
		for _, c := range []struct {
			name string
			sel  *algebra.Node
		}{
			{"plain", algebra.Select(algebra.MustParsePredicate("price < 20"), algebra.Data(sales...))},
			{"nested", algebra.Select(algebra.MustParsePredicate("sale/price < 20"), algebra.Data(tuples...))},
		} {
			b.Run(fmt.Sprintf("%s/%d", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := Evaluate(c.sel)
					if err != nil || len(out) == 0 || len(out) == n {
						b.Fatalf("select kept %d of %d (%v)", len(out), n, err)
					}
				}
			})
		}
	}
}
