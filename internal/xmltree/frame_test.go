package xmltree

import (
	"fmt"
	"strings"
	"testing"
)

// frameDocs is a spread of document shapes covering every branch of the
// serializer: escaping in text and attributes (CR, tab and newline included),
// empty elements, deep nesting, unsorted attribute lists on both sides of the
// 64-attribute min-scan limit, and live markup on both sides of a large
// memoized child.
var frameDocs = []string{
	`<a/>`,
	`<a b="1"/>`,
	`<a b="x&amp;y" c="q&quot;r"><t>x &lt; y &gt; z</t><e/></a>`,
	`<mqp id="q1" target="h:9020"><plan><union><data><item><title>Disintegration</title><price>9.5</price></item></data>` +
		`<url href="far:9020" path="/data[id=7]"/></union></plan><provenance algo="hmac-sha256"><visit at="1000" server="a:1" sig="AAAA"/></provenance></mqp>`,
	`<r><a><b><c><d>deep</d></c></b></a></r>`,
	`<a z="1" b="2" m="3"><c y="&gt;" x="&quot;"/></a>`,
	`<w v="a&#xD;b&#x9;c&#xA;d&quot;e&gt;f">a&#xD;b&#x9;c&#xA;d"e&gt;f<x/>g&#xD;h&#x9;i&#xA;j"k&gt;</w>`,
	manyAttrs(65),
	`<shell a="1">` + strings.Repeat("x", 4000) + `<big>` + strings.Repeat(`<i k="v">y&amp;z</i>`, 40) + `</big>` +
		strings.Repeat("w", 200) + `<tail/></shell>`,
}

// manyAttrs is an element carrying n attributes in reverse canonical order.
func manyAttrs(n int) string {
	var b strings.Builder
	b.WriteString("<many")
	for i := n - 1; i >= 0; i-- {
		fmt.Fprintf(&b, ` a%02d="%d"`, i, i)
	}
	b.WriteString("/>")
	return b.String()
}

func buildMutable(t *testing.T, s string) *Node {
	t.Helper()
	n, err := ParseString(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return n
}

// TestFrameEncoderMatchesString is the one-serializer invariant: for mutable,
// frozen, decoder-born trees and mutable shells around frozen children, the
// streamed bytes, String, ByteSize and the memo a fresh Freeze builds all
// agree with the mutable tree's String.
func TestFrameEncoderMatchesString(t *testing.T) {
	for _, s := range frameDocs {
		want := buildMutable(t, s).String()
		shell := buildMutable(t, s)
		for _, c := range shell.Children {
			c.Freeze()
		}
		variants := map[string]*Node{
			"mutable": buildMutable(t, s),
			"frozen":  buildMutable(t, s).Freeze(),
			"shell":   shell,
		}
		if d, err := DecodeString(s); err == nil {
			variants["decoded"] = d
		}
		for kind, n := range variants {
			if got := n.String(); got != want {
				t.Errorf("%s %q: String %q != %q", kind, s, got, want)
			}
			if got := n.ByteSize(); got != len(want) {
				t.Errorf("%s %q: ByteSize %d != %d", kind, s, got, len(want))
			}
			if got, _ := n.Clone().Freeze().FrozenSerialization(); got != want {
				t.Errorf("%s %q: frozen memo %q != %q", kind, s, got, want)
			}
			e := GetFrameEncoder()
			e.Node(n)
			if got := e.String(); got != want {
				t.Errorf("%s %q: streamed %q != %q", kind, s, got, want)
			}
			if e.Len() != len(want) {
				t.Errorf("%s %q: Len %d != %d", kind, s, e.Len(), len(want))
			}
			if got := string(e.Bytes()); got != want {
				t.Errorf("%s %q: Bytes %q != %q", kind, s, got, want)
			}
			e.Release()
		}
	}
}

// TestFrameEncoderMixedSegments checks the raw/attr/text primitives compose
// with a large memoized subtree, and that the frame holds a copy of the
// memo's bytes: an encoder aliases nothing it was handed.
func TestFrameEncoderMixedSegments(t *testing.T) {
	big := "<data>" + strings.Repeat("<item><title>xyzzy</title></item>", 200) + "</data>"
	payload, err := DecodeString(big)
	if err != nil {
		t.Fatal(err)
	}
	if payload.memoStr != big {
		t.Fatalf("decoded payload has no clean-span memo")
	}
	e := GetFrameEncoder()
	defer e.Release()
	e.Raw("<mqp")
	e.Attr("id", `q"1`)
	e.RawByte('>')
	e.Node(payload)
	e.Node(ElemText("note", "a<b"))
	e.Raw("</mqp>")
	want := `<mqp id="q&quot;1">` + big + `<note>a&lt;b</note></mqp>`
	if got := e.String(); got != want {
		t.Fatalf("streamed %q != %q", got, want)
	}
	frame := e.Bytes()
	memo := unsafeStringData(payload.memoStr)
	for i := range frame {
		if &frame[i] == memo {
			t.Fatalf("staged frame aliases the payload's memo at offset %d", i)
		}
	}
}

// TestFrameEncoderReuse makes sure a pooled encoder starts clean after big
// and small frames alternate.
func TestFrameEncoderReuse(t *testing.T) {
	e := GetFrameEncoder()
	defer e.Release()
	e.Raw(strings.Repeat("x", 12<<10))
	if got := e.Len(); got != 12<<10 {
		t.Fatalf("Len %d", got)
	}
	e.Reset()
	if e.Len() != 0 || len(e.Bytes()) != 0 {
		t.Fatalf("Reset left state behind")
	}
	e.Raw("<a/>")
	if got := e.String(); got != "<a/>" {
		t.Fatalf("after reuse: %q", got)
	}
}

// TestFrameEncoderFreeChunksBounded: Reset (which Release calls before
// pooling the encoder) keeps the buffer of a frame for the next one, but
// never one larger than frameKeepMax, however large the frame; and a frame
// staged after either comes out byte for byte.
func TestFrameEncoderFreeChunksBounded(t *testing.T) {
	e := NewFrameEncoder()
	stage := func(piece string, size int) {
		var want strings.Builder
		for want.Len() < size {
			e.Raw(piece)
			want.WriteString(piece)
		}
		if got := e.String(); got != want.String() {
			t.Fatalf("staged %d bytes differ from the %d written", len(got), want.Len())
		}
	}
	stage(strings.Repeat("x", 100), frameKeepMax/2)
	kept := cap(e.buf)
	e.Reset()
	if cap(e.buf) != kept {
		t.Fatalf("Reset dropped a %d-byte buffer under the %d-byte cap", kept, frameKeepMax)
	}
	stage(strings.Repeat("y", 99), 4*frameKeepMax)
	e.Reset()
	if cap(e.buf) > frameKeepMax {
		t.Fatalf("encoder keeps a %d-byte buffer; cap is %d", cap(e.buf), frameKeepMax)
	}
	stage(strings.Repeat("z", 98), frameKeepMax/2)
}

// TestDecodeCleanSpanMemo: canonical input spans become serialization memos;
// every deviation from canonical form must leave the memo unset while the
// serialization itself stays correct (the differential fuzz enforces the
// latter globally; these are the targeted regressions).
func TestDecodeCleanSpanMemo(t *testing.T) {
	clean := []string{
		`<a/>`,
		`<a b="1" c="2"/>`,
		`<a>text</a>`,
		`<mqp id="q"><plan><data><i>1</i></data></plan></mqp>`,
		`<v s="a:1">x</v>`,
		`<a>lead<b>x</b>tail<c/></a>`,
	}
	for _, s := range clean {
		n, err := DecodeString(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if n.memoStr != s {
			t.Errorf("%q: clean span not memoized (memoStr %q)", s, n.memoStr)
		}
		assertNormal(t, n, s)
	}
	dirty := []string{
		`<a ></a>`,             // tag whitespace + non-empty form of empty element
		`<a></a>`,              // canonical form is <a/>
		`<a b='1'/>`,           // single-quoted value
		`<a z="1" b="2"/>`,     // unsorted attributes
		`<a>&#65;</a>`,         // entity expansion
		`<a><!--c-->x</a>`,     // comment dropped
		`<a><![CDATA[x]]></a>`, // CDATA re-escaped
		`<a>  </a>`,            // whitespace-only content dropped
		`<p><a></a>></p>`,      // size-neutral composite: dirty child + text escape
		`<a A="0>"></a>`,       // size-neutral: long empty form + attribute escape
	}
	for _, s := range dirty {
		n, err := DecodeString(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if n.memoStr != "" {
			t.Errorf("%q: non-canonical span wrongly memoized as %q", s, n.memoStr)
		}
		assertNormal(t, n, s)
		ref, err := parseReference(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if got, want := n.String(), ref.String(); got != want {
			t.Errorf("%q: serialization %q != reference %q", s, got, want)
		}
	}
	// Subtree memos inside a dirty document: the clean child keeps its span.
	n, err := DecodeString(`<p><!--x--><a b="1">t</a></p>`)
	if err != nil {
		t.Fatal(err)
	}
	if n.memoStr != "" {
		t.Fatalf("root with comment should not memoize")
	}
	if c := n.Child("a"); c == nil || c.memoStr != `<a b="1">t</a>` {
		t.Fatalf("clean child span lost: %+v", c)
	}
}
