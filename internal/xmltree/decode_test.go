package xmltree

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// decodeCases are inputs with known-interesting tokenizer behavior; each is
// checked for Decode/Parse agreement (tree-equal or both reject).
var decodeCases = []string{
	``,
	`<a/>`,
	`<a></a>`,
	`<a b="1" a="2">text<b/> tail </a>`,
	`<mqp id="q" target="c:1"><plan><data><item zip="97201"><price>5</price></item></data></plan></mqp>`,
	`<a>&amp;&lt;&gt;&apos;&quot;</a>`,
	`<a>&#65;&#x41;&#x00041;</a>`,
	`<a b="&#38;#60;"/>`,
	`<a>pre<![CDATA[mid <raw> & bits]]>post</a>`,
	`<a> <![CDATA[ ]]> </a>`,
	`<a>x<!-- comment -->y</a>`,
	`<a><!-- c -- d --></a>`,
	`<a><!-- x ---></a>`,
	`<a>]]></a>`,
	`<a b="]]>"/>`,
	`<a>&unknown;</a>`,
	`<a>&#0;</a>`,
	`<a>&#x1F;</a>`,
	`<a>&#xD800;</a>`,
	`<a>&#xFFFE;</a>`,
	`<a>&#x110000;</a>`,
	`<a>&#x41</a>`,
	`<a>&amp</a>`,
	`<a>&#;</a>`,
	`<a>& b</a>`,
	"<a>x\r\ny\rz</a>",
	"<a b=\"x\ty\nz\rw\"/>",
	"<a b=\"x&#x9;y&#xA;z&#xD;w\"/>",
	"<a>x&#xD;\ny</a>",
	"<a><![CDATA[x\r\ny\rz]]></a>",
	`<?xml version="1.0"?><a/>`,
	`<?xml version="2.0"?><a/>`,
	`<?xml encoding="latin-1"?><a/>`,
	`<?xml version='1.0' encoding='UTF-8'?><a/>`,
	`<a><?php echo ?></a>`,
	`<!DOCTYPE a [<!ENTITY e "v">]><a/>`,
	`<!DOCTYPE a <!-- c --> ><a/>`,
	`<!DOCTYPE a "unclosed><a/>`,
	`<a><!X></a>`,
	`<a><!></a>`,
	`<a:b:c/>`,
	`<:a/>`,
	`<a:/>`,
	`<1a/>`,
	`<ä/>`,
	`<a b=x/>`,
	`<a b></a>`,
	`<a  b = "1" />`,
	`<a/><a/>`,
	`<a></b>`,
	`<a></a >`,
	`<a></ a>`,
	`<a b="1" b="2"/>`,
	`<a xmlns="u" xmlns:p="v" p:c="1"/>`,
	`<a x:xmlns="v"/>`,
	`<a xmlns:x="u" x:xmlns="v" b="1"/>`,
	`<a xmlns:p="u"><b p:q="1"/></a>`,
	`<a><b xmlns:p="xmlns" p:q="1"/></a>`,
	`<a xml:lang="en"/>`,
	`<a p:q="1"/>`,
	`<a -- b="1"/>`,
	`<a/ >`,
	`<a><b/></a>trailing`,
	`<a></a><!-- after -->`,
	"\ufeff<a/>",
	`<a b="c<d"/>`,
	`<![CDATA[x]]>`,
	`<a><![CDATA[x]]y]]></a>`,
	`<a><![CDATA[]]]]><![CDATA[>]]></a>`,
	`<a><![CDAT[x]]></a>`,
	`<a`,
	`<a b="`,
	`<a/><b c="`,
	`<a><!-- c `,
	`<a href="http://x:1/" path="/data[id=245]"><annotations><annot k="card" v="10"/></annotations></a>`,
	"<a\n b\n=\n'1'/>",
	`<a>x<!-- c -->y<![CDATA[z]]>w</a>`,
	"<a>\x01</a>",
	"<a>\xff\xfe</a>",
	"<a><!-- \x01\xff --></a>",
	"<!DOCTYPE \x01\xff><a/>",
}

// TestDecodeRefusesForeignXML: the decoder reads the XML the system writes
// and refuses the rest of XML — namespaces, directives and processing
// instructions other than a leading declaration — through both entry points,
// while a leading declaration, a comment and a CDATA section still decode.
func TestDecodeRefusesForeignXML(t *testing.T) {
	for _, doc := range []string{
		`<p:a/>`,
		`<r><p:a>x</p:a></r>`,
		`<a p:b="1"/>`,
		`<a xmlns="u"/>`,
		`<a xmlns:p="u"/>`,
		`<a b="1" xmlns:p="u" c="2"><b/></a>`,
		`<a xml:lang="en"/>`,
		`<!DOCTYPE a><a/>`,
		`<a><!X></a>`,
		`<a><?php echo 1 ?></a>`,
		`<a/><?xml version="1.0"?>`,
		`<a><?xml version="1.0"?></a>`,
		`<?xml-stylesheet href="s"?><a/>`,
	} {
		if n, err := DecodeString(doc); err == nil {
			t.Errorf("DecodeString(%q) = %s, want an error", doc, n)
		}
		if n, err := Decode([]byte(doc)); err == nil {
			t.Errorf("Decode(%q) = %s, want an error", doc, n)
		}
	}
	for doc, want := range map[string]string{
		`<?xml version="1.0" encoding="UTF-8"?>` + "\n<a>x</a>": `<a>x</a>`,
		`<!-- items --><a>x<!-- c -->y</a>`:                     `<a>xy</a>`,
		`<a><![CDATA[<b> & c]]></a>`:                            `<a>&lt;b&gt; &amp; c</a>`,
	} {
		for _, decode := range []func(string) (*Node, error){DecodeString, func(s string) (*Node, error) { return Decode([]byte(s)) }} {
			n, err := decode(doc)
			if err != nil {
				t.Fatalf("%q: %v", doc, err)
			}
			if got := n.String(); got != want {
				t.Errorf("%q decoded to %s, want %s", doc, got, want)
			}
		}
	}
}

// TestDecodeMatchesParse pins the decoder to the reference implementation
// on the hand-picked corpus; FuzzDecodeEquivalence explores beyond it.
func TestDecodeMatchesParse(t *testing.T) {
	for _, s := range decodeCases {
		checkDecodeAgreement(t, s)
	}
}

func checkDecodeAgreement(t *testing.T, s string) {
	t.Helper()
	ref, refErr := parseReference(s)
	got, gotErr := DecodeString(s)
	if (refErr == nil) != (gotErr == nil) {
		t.Fatalf("accept/reject disagreement on %q:\n  Parse:  tree=%v err=%v\n  Decode: tree=%v err=%v",
			s, ref, refErr, got, gotErr)
	}
	if refErr != nil {
		return
	}
	if !Equal(ref, got) {
		t.Fatalf("tree disagreement on %q:\n  Parse:  %s\n  Decode: %s", s, ref, got)
	}
	// Canonical serializations must match byte for byte, and the decoded
	// tree must be frozen at birth with correct memoized sizes throughout.
	rs, gs := ref.String(), got.String()
	if rs != gs {
		t.Fatalf("serialization disagreement on %q:\n  Parse:  %q\n  Decode: %q", s, rs, gs)
	}
	assertSized(t, got, s)
	assertNormal(t, ref, s)
	assertNormal(t, got, s)
}

// assertSized checks every node of a decoded tree: born frozen, and held
// against its clone, which is mutable and carries no serialization memo — the
// size the decoder summed while scanning must be the length of a fresh walk,
// and every clean-span memo must be that walk's bytes.
func assertSized(t testing.TB, n *Node, input string) {
	t.Helper()
	if !n.Frozen() {
		t.Fatalf("decoded node <%s>%q not frozen at birth (input %q)", n.Name, n.Text, input)
	}
	want := n.Clone().String()
	if got := n.ByteSize(); got != len(want) {
		t.Fatalf("decoded node <%s>%q ByteSize = %d, want %d (input %q)", n.Name, n.Text, got, len(want), input)
	}
	if got := n.String(); got != want {
		t.Fatalf("decoded node <%s> String = %q, want %q (input %q)", n.Name, got, want, input)
	}
	for _, c := range n.Children {
		assertSized(t, c, input)
	}
}

// TestDecodeEveryByte puts each of the 256 byte values wherever a scan loop
// classifies bytes — character data, both kinds of quoted value, element and
// attribute names — alone and next to everything the table scan hands over
// to the general loop for, and holds Decode to Parse on each.
func TestDecodeEveryByte(t *testing.T) {
	defer SetFrameCacheLimit(SetFrameCacheLimit(0))
	specials := []string{"", "]]>", "]]", "]", "\r\n", "\r", "&amp;", ">", "x", " "}
	for c := 0; c < 256; c++ {
		b := string([]byte{byte(c)})
		for _, sp := range specials {
			for _, run := range []string{b + sp, sp + b, sp + b + sp, " " + b + sp + " "} {
				for _, doc := range []string{
					"<a>" + run + "</a>",
					"<a><b/>" + run + "</a>",
					"<a>" + run + "<b/>" + run + "</a>",
					"<a>" + run, // the run ends at EOF
					"<a/>" + run,
					`<a k="` + run + `"/>`,
					`<a k='` + run + `'/>`,
					`<a j="x" k="` + run + `">` + run + `</a>`,
					`<a k="` + run,
					"<a><![CDATA[" + run + "]]></a>",
				} {
					checkDecodeAgreement(t, doc)
				}
			}
		}
		for _, name := range []string{b, "n" + b, b + "n", "n" + b + "n", "p:" + b} {
			checkDecodeAgreement(t, "<"+name+"/>")
			checkDecodeAgreement(t, "<"+name+">x</"+name+">")
			checkDecodeAgreement(t, "<a "+name+`="v"/>`)
			checkDecodeAgreement(t, "<a b=\"1\" "+name+`="v" c="2">x</a>`)
			checkDecodeAgreement(t, "<a>&"+name+";</a>")
		}
	}
}

// TestCountCloseTags holds the word-at-a-time counter to strings.Count on
// every length around its word boundaries, '<' as the last byte included,
// and its leaf count, when asked for, to the end tags not right after a '>'.
func TestCountCloseTags(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 400; trial++ {
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = "</<a/>"[rng.Intn(6)]
			}
			s := string(buf)
			wantLeaves := strings.Count(s, "</") - strings.Count(s, "></")
			for _, countLeaves := range []bool{false, true} {
				want := 0
				if countLeaves {
					want = wantLeaves
				}
				if closes, leaves := countCloseTags(s, countLeaves); closes != strings.Count(s, "</") || leaves != want {
					t.Fatalf("countCloseTags(%q, %v) = %d, %d; want %d, %d", s, countLeaves, closes, leaves, strings.Count(s, "</"), want)
				}
			}
		}
	}
}

// TestDecodeFrozenMutationPanics verifies decoder output obeys the frozen
// contract: mutators panic rather than corrupting buffer-aliasing nodes.
func TestDecodeFrozenMutationPanics(t *testing.T) {
	n, err := DecodeString(`<a b="1"><c>x</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetAttr on decoded (frozen) node did not panic")
		}
	}()
	n.SetAttr("b", "2")
}

// TestDecodeZeroCopyAliasing pins the zero-copy property: attribute values
// and text runs that need no unescaping are substrings of the input, not
// copies, while escaped runs are materialized.
func TestDecodeZeroCopyAliasing(t *testing.T) {
	input := `<a name="plainvalue"><t>plain text run</t><e>esc&amp;aped</e></a>`
	n, err := DecodeString(input)
	if err != nil {
		t.Fatal(err)
	}
	aliases := func(sub string) bool {
		// A substring shares the input's backing array exactly when its
		// data pointer lies within the input's span.
		return strings.Contains(input, sub) && func() bool {
			off := strings.Index(input, sub)
			return input[off:off+len(sub)] == sub
		}()
	}
	v, _ := n.Attr("name")
	if v != "plainvalue" || !aliases(v) {
		t.Fatalf("attr value %q should alias input", v)
	}
	if txt := n.Child("t").InnerText(); txt != "plain text run" {
		t.Fatalf("text = %q", txt)
	}
	if txt := n.Child("e").InnerText(); txt != "esc&aped" {
		t.Fatalf("escaped text = %q", txt)
	}
}

// TestDecodeConcurrentFrozenReads drives concurrent readers over one
// decoded (buffer-aliasing, frozen) document; run under -race this pins
// the advertised lock-free sharing of decoder output.
func TestDecodeConcurrentFrozenReads(t *testing.T) {
	doc := `<mqp id="q1" target="c:1"><plan><data>` +
		strings.Repeat(`<item zip="97201"><title>T &amp; A</title><price>9.99</price></item>`, 20) +
		`</data></plan></mqp>`
	n, err := DecodeString(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := n.String()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if n.String() != want {
					t.Error("unstable serialization")
					return
				}
				if n.ByteSize() != len(want) {
					t.Error("unstable size")
					return
				}
				if n.Find("plan/data/item/title") == nil {
					t.Error("lost path match")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestElementNameOKMatchesDecoder: ElementNameOK accepts exactly the names
// that decode back as themselves when written as an element, the property a
// caller that emits the name relies on.
func TestElementNameOKMatchesDecoder(t *testing.T) {
	for _, name := range []string{
		"", "a", "A1", "_x", "x-y.z", "1x", "-x", ".x", "a:b", ":a", "a:", "a b", "a>", "a/", "a&amp;",
		"é", "naïve", "ключ", "·a", "a·", "\xff", "a\xffb",
	} {
		doc, err := DecodeString("<" + name + "/>")
		if want := err == nil && doc.Name == name; ElementNameOK(name) != want {
			t.Errorf("ElementNameOK(%q) = %v; the decoder reads <%s/> as %v, %v", name, !want, name, doc, err)
		}
	}
}

// TestDecodeDepthCap: a document nested exactly MaxDepth deep decodes, and one
// level more fails, whether the extra level is an open element or an empty
// one, and before the decoder has read the rest of the frame.
func TestDecodeDepthCap(t *testing.T) {
	chain := func(depth int, leaf string) string {
		return strings.Repeat("<a>", depth) + leaf + strings.Repeat("</a>", depth)
	}
	for _, doc := range []string{chain(MaxDepth, ""), chain(MaxDepth-1, "<b/>")} {
		n, err := DecodeString(doc)
		if err != nil {
			t.Fatalf("document at the cap: %v", err)
		}
		if n.String() != strings.Replace(doc, "<a></a>", "<a/>", 1) {
			t.Fatal("document at the cap decoded to different bytes")
		}
		checkDecodeAgreement(t, doc)
	}
	for _, doc := range []string{chain(MaxDepth+1, ""), chain(MaxDepth, "<b/>"), chain(MaxDepth, "<b>") + "<unterminated"} {
		if _, err := DecodeString(doc); err == nil || !strings.Contains(err.Error(), "nested deeper than") {
			t.Fatalf("document one level past the cap: err = %v", err)
		}
		checkDecodeAgreement(t, doc)
	}
}
