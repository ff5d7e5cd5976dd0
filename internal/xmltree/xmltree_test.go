package xmltree

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestParseSimple(t *testing.T) {
	n, err := ParseString(`<item id="1"><name>armchair</name><price>25</price></item>`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if n.Name != "item" {
		t.Fatalf("root name = %q, want item", n.Name)
	}
	if v, ok := n.Attr("id"); !ok || v != "1" {
		t.Fatalf("id attr = %q,%v", v, ok)
	}
	if got := n.Value("name"); got != "armchair" {
		t.Fatalf("name = %q", got)
	}
	if got := n.Value("price"); got != "25" {
		t.Fatalf("price = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`<a><b></a>`,
		`<a></a><b></b>`,
		`</a>`,
		`<a>`,
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): expected error", c)
		}
	}
}

func TestWhitespaceDropped(t *testing.T) {
	n := MustParse("<a>\n  <b>x</b>\n  <c/>\n</a>")
	if len(n.Children) != 2 {
		t.Fatalf("children = %d, want 2 (whitespace text dropped)", len(n.Children))
	}
}

func TestMixedTextPreserved(t *testing.T) {
	n := MustParse(`<p>hello <b>world</b> bye</p>`)
	if got := n.InnerText(); got != "hello world bye" {
		t.Fatalf("InnerText = %q", got)
	}
}

func TestRoundTrip(t *testing.T) {
	src := `<plan target="1.2.3.4:9020"><select pred="price &lt; 10"><union><url href="http://a/"/><url href="http://b/"/></union></select></plan>`
	n := MustParse(src)
	out := n.String()
	n2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !Equal(n, n2) {
		t.Fatalf("round trip mismatch:\n%s\n%s", n.Indent(), n2.Indent())
	}
}

func TestCanonicalAttrOrder(t *testing.T) {
	a := &Node{Name: "x"}
	a.SetAttr("b", "2").SetAttr("a", "1")
	b := &Node{Name: "x"}
	b.SetAttr("a", "1").SetAttr("b", "2")
	if a.String() != b.String() {
		t.Fatalf("canonical forms differ: %q vs %q", a.String(), b.String())
	}
	if !strings.HasPrefix(a.String(), `<x a="1" b="2"`) {
		t.Fatalf("attrs not sorted: %q", a.String())
	}
}

func TestEscaping(t *testing.T) {
	n := Elem("v", TextNode(`a<b&c>"d"`))
	n.SetAttr("q", `x"y<z`)
	rt, err := ParseString(n.String())
	if err != nil {
		t.Fatalf("reparse escaped: %v", err)
	}
	if !Equal(n, rt) {
		t.Fatalf("escape round trip mismatch: %s vs %s", n, rt)
	}
}

func TestEqual(t *testing.T) {
	a := MustParse(`<a x="1" y="2"><b/>t<c/></a>`)
	b := MustParse(`<a y="2" x="1"><b/>t<c/></a>`)
	if !Equal(a, b) {
		t.Fatal("attribute order should not affect equality")
	}
	c := MustParse(`<a x="1" y="2"><c/>t<b/></a>`)
	if Equal(a, c) {
		t.Fatal("child order must affect equality")
	}
	if !Equal(nil, nil) {
		t.Fatal("nil == nil")
	}
	if Equal(a, nil) || Equal(nil, a) {
		t.Fatal("nil != non-nil")
	}
}

func TestClone(t *testing.T) {
	a := MustParse(`<a x="1"><b>t</b></a>`)
	c := a.Clone()
	if !Equal(a, c) {
		t.Fatal("clone not equal")
	}
	if got := c.Child("b"); got.Text != "t" || len(got.Children) != 0 {
		t.Fatalf("clone of <b>t</b> = Text %q + %d children, want the text on the element", got.Text, len(got.Children))
	}
	c.Child("b").Text = "changed"
	if Equal(a, c) || a.Child("b").Text != "t" {
		t.Fatal("clone shares storage with original")
	}
}

func TestFindAttributePredicate(t *testing.T) {
	n := MustParse(`<data><coll id="244"><x/></coll><coll id="245"><y/></coll></data>`)
	m := n.Find("coll[id=245]")
	if m == nil || m.Child("y") == nil {
		t.Fatalf("predicate lookup failed: %v", m)
	}
	if n.Find("coll[id=999]") != nil {
		t.Fatal("expected no match for id=999")
	}
}

func TestFindPositional(t *testing.T) {
	n := MustParse(`<l><i>a</i><i>b</i><i>c</i></l>`)
	if got := n.Find("i[2]").InnerText(); got != "b" {
		t.Fatalf("i[2] = %q", got)
	}
	if n.Find("i[4]") != nil {
		t.Fatal("i[4] should not match")
	}
}

func TestFindWildcardAndAttrAccess(t *testing.T) {
	n := MustParse(`<item><price currency="USD">10</price></item>`)
	if got := n.Value("price/@currency"); got != "USD" {
		t.Fatalf("@currency = %q", got)
	}
	if got := n.Find("*"); got == nil || got.Name != "price" {
		t.Fatalf("wildcard child = %v", got)
	}
}

func TestFindNested(t *testing.T) {
	n := MustParse(`<item><seller><loc><city>Portland</city></loc></seller></item>`)
	if got := n.Value("seller/loc/city"); got != "Portland" {
		t.Fatalf("nested value = %q", got)
	}
}

func TestFloatInt(t *testing.T) {
	n := MustParse(`<i><p> 9.5 </p><q>7</q></i>`)
	if f, ok := Number(n.Value("p")); !ok || f != 9.5 {
		t.Fatalf("Number = %v, %v", f, ok)
	}
	i, err := n.Int("q")
	if err != nil || i != 7 {
		t.Fatalf("Int = %v, %v", i, err)
	}
	// A missing field, text and NaN do not read as numbers; infinities do.
	for _, text := range []string{n.Value("missing"), "N/A", "NaN", " nan ", "-NaN"} {
		if f, ok := Number(text); ok {
			t.Errorf("Number(%q) = %v, want no number", text, f)
		}
	}
	if f, ok := Number(" -Inf "); !ok || f > -1e308 {
		t.Fatalf("Number(-Inf) = %v, %v", f, ok)
	}
	if _, err := n.Int("p"); err == nil {
		t.Fatal("Int on float text should error")
	}
}

func TestByteSizeMatchesString(t *testing.T) {
	n := MustParse(`<a x="1"><b>text &amp; more</b><c/></a>`)
	if n.ByteSize() != len(n.String()) {
		t.Fatalf("ByteSize %d != len(String) %d", n.ByteSize(), len(n.String()))
	}
}

func TestEscapeExactOutput(t *testing.T) {
	// Every escapable character, in text and in attribute values. Text keeps
	// literal quotes; attribute values escape them.
	n := Elem("v", TextNode(`a&b<c>d"e`))
	n.SetAttr("q", `x&y<z>w"u`)
	want := `<v q="x&amp;y&lt;z&gt;w&quot;u">a&amp;b&lt;c&gt;d"e</v>`
	if got := n.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	rt, err := ParseString(n.String())
	if err != nil {
		t.Fatalf("reparse escaped: %v", err)
	}
	if !Equal(n, rt) {
		t.Fatalf("escape round trip mismatch: %s vs %s", n, rt)
	}
	if n.ByteSize() != len(want) {
		t.Fatalf("ByteSize %d != %d", n.ByteSize(), len(want))
	}
}

func TestByteSizeInvariant(t *testing.T) {
	cases := []*Node{
		TextNode(""),
		TextNode("plain"),
		TextNode(`all & the < escapes > plus "quotes"`),
		Elem("empty"),
		MustParse(`<a x="1" b="&quot;2&quot;"><b>t &amp; u</b><c/></a>`),
		serializeFixture(),
	}
	for i, n := range cases {
		if n.ByteSize() != len(n.String()) {
			t.Errorf("case %d: ByteSize %d != len(String) %d", i, n.ByteSize(), len(n.String()))
		}
		// And again once frozen, from the memo.
		if n.Freeze().ByteSize() != len(n.String()) {
			t.Errorf("case %d: memoized ByteSize diverged", i)
		}
	}
}

func TestByteSizeCacheInvalidation(t *testing.T) {
	n := Elem("root", ElemText("k", "v"))
	before := n.ByteSize()
	if before != len(n.String()) {
		t.Fatalf("cold size wrong: %d != %d", before, len(n.String()))
	}

	// Every mutation, through a mutator or not, shows in the next size.
	n.SetAttr("attr", `has "quotes" & <angles>`)
	if got := n.ByteSize(); got != len(n.String()) {
		t.Fatalf("after SetAttr: ByteSize %d != len(String) %d", got, len(n.String()))
	}
	n.Add(ElemText("extra", "child & text"))
	if got := n.ByteSize(); got != len(n.String()) {
		t.Fatalf("after Add: ByteSize %d != len(String) %d", got, len(n.String()))
	}
	n.Child("k").SetAttr("deep", "1")
	if got := n.ByteSize(); got != len(n.String()) {
		t.Fatalf("after child SetAttr: ByteSize %d != len(String) %d", got, len(n.String()))
	}
	// A mutable tree memoizes nothing, so a direct field write needs no
	// notification.
	n.Child("k").Text = "a much longer text value > before"
	if got := n.ByteSize(); got != len(n.String()) {
		t.Fatalf("after direct Text write: ByteSize %d != len(String) %d", got, len(n.String()))
	}
}

// TestMutableByteSizeIsARead: sizing and serializing a shared mutable tree
// write nothing, so concurrent readers need no lock. Meaningful under -race.
func TestMutableByteSizeIsARead(t *testing.T) {
	n := serializeFixture()
	n.Add(freezeFixture().Freeze())
	want := len(n.String())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if n.ByteSize() != want || len(n.String()) != want {
					panic("size mismatch")
				}
			}
		}()
	}
	wg.Wait()
}

// serializeFixture mirrors the wire shape the simnet layer prices on every
// message: nested elements, unsorted attributes, escapable text.
func serializeFixture() *Node {
	root := Elem("mqp").SetAttr("target", "client:9020").SetAttr("id", "fx")
	for i := 0; i < 5; i++ {
		root.Add(Elem("item",
			ElemText("title", `Track <live> & "remastered"`),
			ElemText("price", "9.99")).SetAttr("zip", "97201").SetAttr("condition", "good>fair"))
	}
	return root
}

func TestPropertyByteSizeMatchesString(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomTree(r, 3)
		if r.Intn(2) == 0 {
			n.SetAttr("esc", `a&b<c>"`)
			n.Add(TextNode(`t&<>"`))
		}
		return n.ByteSize() == len(n.String())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChildHelpers(t *testing.T) {
	n := MustParse(`<a><b>1</b><c/><b>2</b></a>`)
	if got := len(n.ChildrenNamed("b")); got != 2 {
		t.Fatalf("ChildrenNamed(b) = %d", got)
	}
	if got := len(n.Elements()); got != 3 {
		t.Fatalf("Elements = %d", got)
	}
	if n.Child("zzz") != nil {
		t.Fatal("Child(zzz) should be nil")
	}
	if n.AttrDefault("k", "d") != "d" {
		t.Fatal("AttrDefault miss")
	}
	n.SetAttr("k", "v")
	if n.AttrDefault("k", "d") != "v" {
		t.Fatal("AttrDefault hit")
	}
}

func TestBadPaths(t *testing.T) {
	n := MustParse(`<a><b/></a>`)
	for _, p := range []string{"", "b//c", "b[", "b[0]", "b[-1]", "[x=1]"} {
		if got := n.Find(p); got != nil {
			t.Errorf("Find(%q) = %v, want nil", p, got)
		}
	}
}

// randomTree builds a small random tree for property tests.
func randomTree(r *rand.Rand, depth int) *Node {
	names := []string{"item", "price", "name", "seller", "desc", "q"}
	n := Elem(names[r.Intn(len(names))])
	if r.Intn(3) == 0 {
		n.SetAttr("id", string(rune('a'+r.Intn(26))))
	}
	if depth > 0 {
		k := r.Intn(4)
		for i := 0; i < k; i++ {
			// Avoid adjacent text nodes: they coalesce on reparse, which is
			// a legitimate canonicalization, not a round-trip failure.
			prevText := len(n.Children) > 0 && n.Children[len(n.Children)-1].IsText()
			if !prevText && r.Intn(4) == 0 {
				n.Add(TextNode("t" + string(rune('0'+r.Intn(10)))))
			} else {
				n.Add(randomTree(r, depth-1))
			}
		}
	}
	return n
}

func TestPropertyRoundTrip(t *testing.T) {
	// Serialization followed by parsing is the identity on canonical trees
	// (modulo whitespace-only text, which randomTree never produces).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomTree(r, 3)
		rt, err := ParseString(n.String())
		if err != nil {
			return false
		}
		return Equal(n, rt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomTree(r, 3)
		return Equal(n, n.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// benchItems is the document the parse and serialize benchmarks share.
var benchItems = "<items>" + strings.Repeat(`<item id="1"><name>armchair</name><price>25</price></item>`, 50) + "</items>"

// BenchmarkParse is ParseString, the reader that ships (decode + clone);
// BenchmarkParseLegacy is the reference parser on the same bytes.
func BenchmarkParse(b *testing.B) { benchParse(b, ParseString) }

func BenchmarkParseLegacy(b *testing.B) { benchParse(b, parseReference) }

func benchParse(b *testing.B, parse func(string) (*Node, error)) {
	defer SetFrameCacheLimit(SetFrameCacheLimit(0)) // every iteration decodes
	b.SetBytes(int64(len(benchItems)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parse(benchItems); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialize(b *testing.B) {
	n := MustParse(benchItems)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = n.String()
	}
}
