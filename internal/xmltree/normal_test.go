package xmltree

import (
	"strconv"
	"strings"
	"testing"
)

// assertNormal walks n and fails on the first element whose first child is a
// text node: leading character data must be the element's own Text.
func assertNormal(t testing.TB, n *Node, input string) {
	t.Helper()
	if len(n.Children) > 0 && n.Children[0].IsText() {
		t.Fatalf("element <%s> has text node %q as its first child (input %q)", n.Name, n.Children[0].Text, input)
	}
	for _, c := range n.Children {
		assertNormal(t, c, input)
	}
}

// parsers are the two producers that read XML: the encoding/xml reference
// and the zero-copy decoder.
var parsers = map[string]func(string) (*Node, error){"Parse": parseReference, "Decode": DecodeString}

// shape renders a tree's structure unambiguously: an element is its name,
// its quoted Text if any, and its children in parentheses; a text node is
// its quoted text. <a>x<b/>y</a> reads a"x"(b "y").
func shape(n *Node) string {
	if n.IsText() {
		return strconv.Quote(n.Text)
	}
	s := n.Name
	if n.Text != "" {
		s += strconv.Quote(n.Text)
	}
	if len(n.Children) > 0 {
		kids := make([]string, len(n.Children))
		for i, c := range n.Children {
			kids[i] = shape(c)
		}
		s += "(" + strings.Join(kids, " ") + ")"
	}
	return s
}

// checkCanonical holds a normal-form tree against every consumer: canonical
// bytes, arithmetic size, streamed frame, concatenated text, and both
// parsers reading the canonical bytes back into the same tree.
func checkCanonical(t *testing.T, n *Node, wantShape, wantXML, wantInner string) {
	t.Helper()
	assertNormal(t, n, wantXML)
	if got := shape(n); got != wantShape {
		t.Errorf("shape = %s, want %s", got, wantShape)
	}
	if got := n.String(); got != wantXML {
		t.Errorf("String() = %q, want %q", got, wantXML)
	}
	if got := n.ByteSize(); got != len(wantXML) {
		t.Errorf("ByteSize() = %d, want %d", got, len(wantXML))
	}
	e := GetFrameEncoder()
	e.Node(n)
	if got := e.String(); got != wantXML {
		t.Errorf("FrameEncoder = %q, want %q", got, wantXML)
	}
	e.Release()
	if got := n.InnerText(); got != wantInner {
		t.Errorf("InnerText() = %q, want %q", got, wantInner)
	}
	if c := n.Clone(); !Equal(n, c) || shape(c) != wantShape {
		t.Errorf("Clone() = %s, want %s", shape(c), wantShape)
	}
	for name, parse := range parsers {
		rt, err := parse(wantXML)
		if err != nil {
			t.Errorf("%s(%q): %v", name, wantXML, err)
			continue
		}
		if !Equal(n, rt) {
			t.Errorf("%s(%q) = %s, want %s", name, wantXML, shape(rt), wantShape)
		}
	}
}

// normalCases: input, tree shape, canonical bytes and inner text.
var normalCases = []struct{ in, shape, xml, inner string }{
	{`<a>x</a>`, `a"x"`, `<a>x</a>`, "x"},
	{`<a></a>`, `a`, `<a/>`, ""},
	{`<a>x<b/>y</a>`, `a"x"(b "y")`, `<a>x<b/>y</a>`, "xy"},
	{`<a><b/>y</a>`, `a(b "y")`, `<a><b/>y</a>`, "y"},
	{`<a>x<b>y</b></a>`, `a"x"(b"y")`, `<a>x<b>y</b></a>`, "xy"},
	{`<a><b>1</b>t<c>2</c>u</a>`, `a(b"1" "t" c"2" "u")`, `<a><b>1</b>t<c>2</c>u</a>`, "1t2u"},
	// Runs split by CDATA sections and comments merge on either side of
	// the first child element.
	{`<a>x<![CDATA[<y>]]>z</a>`, `a"x<y>z"`, `<a>x&lt;y&gt;z</a>`, "x<y>z"},
	{`<a>x<!--c-->y<b/>p<!--c-->q<![CDATA[r]]></a>`, `a"xy"(b "pqr")`, `<a>xy<b/>pqr</a>`, "xypqr"},
	{`<a><!--c-->x</a>`, `a"x"`, `<a>x</a>`, "x"},
	// Whitespace-only runs are dropped one run at a time.
	{`<a>  <b/>  </a>`, `a(b)`, `<a><b/></a>`, ""},
	{`<a>  </a>`, `a`, `<a/>`, ""},
	{`<a>  <![CDATA[x]]> <!--c--> y</a>`, `a"x y"`, `<a>x y</a>`, "x y"},
	{`<a>x<![CDATA[ ]]>y<b/> <![CDATA[z]]></a>`, `a"xy"(b "z")`, `<a>xy<b/>z</a>`, "xyz"},
	{`<a> x </a>`, `a" x "`, `<a> x </a>`, " x "},
	// Entities and line ends.
	{`<a>&lt;&amp;&#65;</a>`, `a"<&A"`, `<a>&lt;&amp;A</a>`, "<&A"},
	{"<a>l1\r\nl2\rl3&#xD;<b/>t\r</a>", `a"l1\nl2\nl3\r"(b "t\n")`, "<a>l1\nl2\nl3&#xD;<b/>t\n</a>", "l1\nl2\nl3\rt\n"},
}

// TestNormalFormParsers: both parsers put character data before the first
// child element into the element's Text — across CDATA and comment splits,
// with whitespace-only runs dropped per run and entities and line ends
// decoded — and keep text nodes only after a child element.
func TestNormalFormParsers(t *testing.T) {
	old := SetFrameCacheLimit(0)
	defer SetFrameCacheLimit(old)
	for _, c := range normalCases {
		for name, parse := range parsers {
			t.Run(name+"/"+c.in, func(t *testing.T) {
				n, err := parse(c.in)
				if err != nil {
					t.Fatal(err)
				}
				checkCanonical(t, n, c.shape, c.xml, c.inner)
			})
		}
	}
}

// TestParseStringIsMutableAndIndependent: ParseString is DecodeString plus
// Clone, and on canonical text the identical-frame cache hands every decode
// the same frozen tree — the clone is all that keeps two fixtures parsed from
// one text apart. Each must equal the reference parser's tree and take edits,
// at the root and below it, without its twin seeing them.
func TestParseStringIsMutableAndIndependent(t *testing.T) {
	for _, c := range normalCases {
		for _, in := range []string{c.in, c.xml} {
			ref, _ := parseReference(in) // nil, and equal to nothing, if it rejects
			a, b := MustParse(in), MustParse(in)
			if a.Frozen() || !Equal(a, ref) {
				t.Fatalf("ParseString(%q) = %s (frozen %v), want mutable %s", in, shape(a), a.Frozen(), shape(ref))
			}
			a.SetAttr("edited", "1").Add(ElemText("extra", "x"))
			for _, k := range a.Children {
				k.Text += "!"
			}
			if !Equal(b, ref) {
				t.Fatalf("editing one ParseString(%q) changed another: %s", in, shape(b))
			}
		}
	}
}

// TestNormalFormBuilders: the constructors and Add fold leading text nodes
// into the element, so hand-built trees equal their parsed serializations.
func TestNormalFormBuilders(t *testing.T) {
	cases := []struct {
		name              string
		n                 *Node
		shape, xml, inner string
	}{
		{"ElemText", ElemText("a", "x"), `a"x"`, `<a>x</a>`, "x"},
		{"ElemText empty", ElemText("a", ""), `a`, `<a/>`, ""},
		{"Add text to empty", Elem("a").Add(TextNode("x")), `a"x"`, `<a>x</a>`, "x"},
		{"Add text twice to empty", Elem("a").Add(TextNode("x")).Add(TextNode("y")), `a"xy"`, `<a>xy</a>`, "xy"},
		{"Add text then child", Elem("a").Add(TextNode("x"), Elem("b")), `a"x"(b)`, `<a>x<b/></a>`, "x"},
		{"Add text to non-empty", Elem("a", Elem("b")).Add(TextNode("x")), `a(b "x")`, `<a><b/>x</a>`, "x"},
		{"Add text to ElemText", ElemText("a", "x").Add(TextNode("y"), ElemText("b", "z")), `a"xy"(b"z")`, `<a>xy<b>z</b></a>`, "xyz"},
		{"Elem text child", Elem("a", TextNode("x"), Elem("b")), `a"x"(b)`, `<a>x<b/></a>`, "x"},
		{"Elem text only", Elem("a", TextNode("x&y")), `a"x&y"`, `<a>x&amp;y</a>`, "x&y"},
		{"Elem texts around child", Elem("a", TextNode("x"), TextNode("y"), Elem("b"), TextNode("z")), `a"xy"(b "z")`, `<a>xy<b/>z</a>`, "xyz"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkCanonical(t, c.n, c.shape, c.xml, c.inner)
			if got := shape(c.n.Freeze()); got != c.shape {
				t.Errorf("frozen shape = %s, want %s", got, c.shape)
			}
			if got := c.n.String(); got != c.xml {
				t.Errorf("frozen String() = %q, want %q", got, c.xml)
			}
		})
	}
}

// TestNormalFormIndent: leading text prints where the text child used to.
func TestNormalFormIndent(t *testing.T) {
	n := MustParse(`<a k="v">lead<b>x</b>tail<c/></a>`)
	want := "<a k=\"v\">\n  lead\n  <b>x</b>\n  tail\n  <c/>\n</a>\n"
	if got := n.Indent(); got != want {
		t.Errorf("Indent() = %q, want %q", got, want)
	}
}
