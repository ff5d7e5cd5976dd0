package algebra

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/xmltree"
)

func TestXMLRoundTripFig3(t *testing.T) {
	p := fig3Plan()
	p.RetainOriginal()
	s := EncodeString(p)
	back, err := DecodeString(s)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.ID != p.ID || back.Target != p.Target {
		t.Fatalf("header mismatch: %s %s", back.ID, back.Target)
	}
	if EncodeString(back) != s {
		t.Fatalf("round trip not stable:\n%s\n%s", s, EncodeString(back))
	}
	if back.Original == nil {
		t.Fatal("original section lost")
	}
}

func TestXMLAllOperators(t *testing.T) {
	d1 := Data(xmltree.MustParse(`<item><price>5</price></item>`))
	d2 := Data(xmltree.MustParse(`<item><price>9</price></item>`))
	tree := Display(
		TopN(3, "price", true,
			Project("out", []string{"price", "name"},
				Union(
					Select(MustParsePredicate("price < 10 and exists price"), d1),
					Or(
						URL("http://10.1.2.3:9020/", "/data[id=245]"),
						Difference(d2.Clone(), Count(URN("urn:X:Y"))),
					),
				),
			),
		),
	)
	p := NewPlan("all-ops", "t:1", tree)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s := EncodeString(p)
	back, err := DecodeString(s)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, s)
	}
	if EncodeString(back) != s {
		t.Fatal("round trip not stable for all-operator plan")
	}
}

func TestXMLAnnotationsRoundTrip(t *testing.T) {
	n := URN("urn:Big")
	n.SetCard(1000000)
	n.Annotate(AnnotDistinct, "title:5000")
	p := NewPlan("ann", "t:1", Display(Select(MustParsePredicate("price < 10"), n)))
	back, err := DecodeString(EncodeString(p))
	if err != nil {
		t.Fatal(err)
	}
	var found *Node
	back.Root.Walk(func(m *Node) bool {
		if m.Kind == KindURN {
			found = m
		}
		return true
	})
	if found == nil || found.Card() != 1000000 {
		t.Fatalf("annotation lost: %v", found)
	}
	if v, _ := found.Annotation(AnnotDistinct); v != "title:5000" {
		t.Fatalf("distinct annotation = %q", v)
	}
}

func TestXMLExtraSectionsPreserved(t *testing.T) {
	p := NewPlan("x", "t:1", Display(Data()))
	p.Extra = map[string]*xmltree.Node{
		"provenance": xmltree.MustParse(`<provenance><visit server="s1" action="bind"/></provenance>`),
	}
	back, err := DecodeString(EncodeString(p))
	if err != nil {
		t.Fatal(err)
	}
	prov, ok := back.Extra["provenance"]
	if !ok || prov.Find("visit") == nil {
		t.Fatalf("extra section lost: %v", back.Extra)
	}
}

func TestXMLDecodeErrors(t *testing.T) {
	bad := []string{
		`<notmqp/>`,
		`<mqp id="x" target="t"/>`,                                           // no plan
		`<mqp id="x" target="t"><plan/></mqp>`,                               // empty plan
		`<mqp id="x" target="t"><plan><bogus/></plan></mqp>`,                 // unknown op
		`<mqp id="x" target="t"><plan><select><data/></select></plan></mqp>`, // no pred
		`<mqp id="x" target="t"><plan><url/></plan></mqp>`,                   // no href
		`<mqp id="x" target="t"><plan><urn/></plan></mqp>`,                   // no name
		`<mqp id="x" target="t"><plan><data/><data/></plan></mqp>`,           // two roots
		`<mqp id="x" target="t"><plan><topn n="bad"><data/></topn></plan></mqp>`,
		`<mqp id="x" target="t"><plan><join leftkey="a" rightkey="b"><data/></join></plan></mqp>`,
	}
	for _, s := range bad {
		if _, err := DecodeString(s); err == nil {
			t.Errorf("DecodeString(%q): want error", s)
		}
	}
}

// TestUnmarshalRejectsBadElementNames: a join's component names and a
// projection's wrapper are written as element names by the engine, so a plan
// whose names are not colon-free XML names is refused on the way in. Markup
// in a name would make the next hop parse a different tree, an empty join
// name would drop that side's fields, and an empty wrapper an item's.
func TestUnmarshalRejectsBadElementNames(t *testing.T) {
	plan := func(op string) string {
		return `<mqp id="x" target="t"><plan><display>` + op + `</display></plan></mqp>`
	}
	ops := map[string]func(name string) string{
		"leftname": func(name string) string {
			return `<join leftkey="k" leftname="` + name + `" rightkey="k" rightname="r"><data/><data/></join>`
		},
		"rightname": func(name string) string {
			return `<join leftkey="k" leftname="l" rightkey="k" rightname="` + name + `"><data/><data/></join>`
		},
		"as": func(name string) string {
			return `<project as="` + name + `" fields="price"><data/></project>`
		},
	}
	for attr, op := range ops {
		for _, bad := range []string{"", "x&gt;&lt;evil/", "a b", "1x", "p:x"} {
			if _, err := DecodeString(plan(op(bad))); err == nil {
				t.Errorf("%s=%q: plan accepted", attr, bad)
			}
		}
		for _, good := range []string{"sale", "_x-1.b", "naïve"} {
			if _, err := DecodeString(plan(op(good))); err != nil {
				t.Errorf("%s=%q: %v", attr, good, err)
			}
		}
	}
}

func TestWireSize(t *testing.T) {
	p := fig3Plan()
	want := EncodeString(p)
	if WireSize(p) != len(want) || Marshal(p).ByteSize() != len(want) {
		t.Fatal("WireSize must equal serialized length")
	}
	enc := xmltree.GetFrameEncoder()
	defer enc.Release()
	EncodeFrame(p, enc)
	if got := string(enc.Bytes()); enc.Len() != len(want) || got != want {
		t.Fatalf("staged %d bytes, Len %d; want %d", len(got), enc.Len(), len(want))
	}
}

// randomPlanNode builds a random well-formed operator tree.
func randomPlanNode(r *rand.Rand, depth int) *Node {
	if depth == 0 {
		switch r.Intn(3) {
		case 0:
			k := r.Intn(3)
			docs := make([]*xmltree.Node, k)
			for i := range docs {
				docs[i] = xmltree.ElemText("item", "v"+string(rune('0'+r.Intn(10))))
			}
			return Data(docs...)
		case 1:
			return URL("http://10.0.0."+string(rune('1'+r.Intn(9)))+":9020/", "")
		default:
			return URN("urn:X:" + string(rune('a'+r.Intn(26))))
		}
	}
	switch r.Intn(7) {
	case 0:
		return Select(Cmp{Path: "price", Op: CmpOp(r.Intn(6)), Value: "10"}, randomPlanNode(r, depth-1))
	case 1:
		return Project("item", []string{"price"}, randomPlanNode(r, depth-1))
	case 2:
		return JoinNamed("k", "k", "l", "r", randomPlanNode(r, depth-1), randomPlanNode(r, depth-1))
	case 3:
		n := 1 + r.Intn(3)
		kids := make([]*Node, n)
		for i := range kids {
			kids[i] = randomPlanNode(r, depth-1)
		}
		return Union(kids...)
	case 4:
		return Or(randomPlanNode(r, depth-1), randomPlanNode(r, depth-1))
	case 5:
		return Count(randomPlanNode(r, depth-1))
	default:
		return TopN(1+r.Intn(5), "price", r.Intn(2) == 0, randomPlanNode(r, depth-1))
	}
}

// Property: Encode/Decode is the identity on serialized form.
func TestPropertyPlanRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := NewPlan("prop", "t:1", Display(randomPlanNode(r, 3)))
		if err := p.Validate(); err != nil {
			return false
		}
		s := EncodeString(p)
		back, err := DecodeString(s)
		if err != nil {
			return false
		}
		return EncodeString(back) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPlanRoundTrip(b *testing.B) {
	p := fig3Plan()
	s := EncodeString(p)
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := DecodeString(s)
		if err != nil {
			b.Fatal(err)
		}
		_ = EncodeString(q)
	}
}

// TestUnmarshalLinearInDepth: Unmarshal checks each operator it builds once,
// so a plan's cost is linear in its size however deep it nests. A chain of
// 40k unions ending in two <data/> leaves took about 24 s on a 2-CPU x86-64
// container when every node re-checked its whole subtree; checked once per
// node it takes about 40 ms there, and about 100 ms under -race, so the
// bound sits more than ten times from both. The decoder refuses nesting past
// xmltree.MaxDepth, so the chain is built in memory: Unmarshal takes a
// document from any source.
func TestUnmarshalLinearInDepth(t *testing.T) {
	const depth = 40000
	op := xmltree.Elem("union", xmltree.Elem("data"), xmltree.Elem("data"))
	for i := 1; i < depth; i++ {
		op = xmltree.Elem("union", op)
	}
	doc := xmltree.Elem("mqp", xmltree.Elem("plan", op))
	doc.SetAttr("id", "deep")
	doc.SetAttr("target", "t")
	began := time.Now()
	plan, err := Unmarshal(doc)
	elapsed := time.Since(began)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("unmarshaled a %d-deep chain in %v", depth, elapsed)
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("unmarshaling a %d-deep chain took %v; checking must be linear in plan size", depth, elapsed)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}
