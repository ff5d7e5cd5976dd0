package xmltree

import "testing"

// FuzzParseRoundTrip checks that the canonical serialization is a parse
// fixpoint: for any input that parses at all, String(Parse(s)) parses back
// to the same tree and the same bytes, and the arithmetic ByteSize agrees
// with the serialized length (frozen or not), for ParseString and for the
// reference parser. Under plain `go test` only the seed corpus runs;
// `go test -fuzz=FuzzParseRoundTrip` explores.
func FuzzParseRoundTrip(f *testing.F) {
	for _, s := range []string{
		`<a/>`,
		`<a x="1"/>`,
		`<a b="&lt;&amp;&quot;" a="2">text<b/> tail </a>`,
		`<mqp id="q" target="c:1"><plan><data><item zip="97201"><price>5</price></item></data></plan></mqp>`,
		`<a>"x" &gt; 'y' &amp; z</a>`,
		`<a>pre<![CDATA[mid <raw> & bits]]>post</a>`,
		`<a x:k="1" y:k="2" xmlns:x="u1" xmlns:y="u2"/>`,
		"<a k=\"tab\tnl\ncr\rend\">line1\nline2&#xD;</a>",
		`<a><b><c><d>deep</d></c></b></a>`,
		`<mqp id="q" target="c:1"><plan><urn name="urn:X:Y"/></plan>` +
			`<visited b="4">meta:9020 2 FnYrjV5vcIE<a s="s1:9020" u="urn:InterestArea:(USA.OR.Portland,Music.CDs)"/></visited></mqp>`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 1<<16 {
			t.Skip("oversized input")
		}
		roundTrip(t, ParseString, s)
		roundTrip(t, parseReference, s)
	})
}

func roundTrip(t *testing.T, parse func(string) (*Node, error), s string) {
	n, err := parse(s)
	if err != nil {
		return // not well-formed
	}
	assertNormal(t, n, s)
	c := n.String()
	if got := n.ByteSize(); got != len(c) {
		t.Fatalf("ByteSize = %d, serialized length = %d\ninput: %q\ncanonical: %q", got, len(c), s, c)
	}
	n2, err := parse(c)
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v\ninput: %q\ncanonical: %q", err, s, c)
	}
	assertNormal(t, n2, c)
	c2 := n2.String()
	if c2 != c {
		t.Fatalf("canonical form is not a fixpoint\ninput: %q\nfirst:  %q\nsecond: %q", s, c, c2)
	}
	if !Equal(n, n2) {
		t.Fatalf("re-parsed tree differs structurally\ninput: %q\ncanonical: %q", s, c)
	}
	if got := n2.Freeze().ByteSize(); got != len(c2) {
		t.Fatalf("frozen ByteSize = %d, want %d", got, len(c2))
	}
}
