package algebra

import (
	"bytes"
	"testing"

	"repro/internal/xmltree"
)

// streamPlans builds a spread of plan shapes: mutable, annotated, with data
// payloads, visited memory, retained originals, and extra sections.
func streamPlans(t *testing.T) map[string]*Plan {
	t.Helper()

	allOps := NewPlan("all-ops", "t:1", Display(
		TopN(3, "price", true,
			Project("out", []string{"price", "name"},
				Union(
					Select(MustParsePredicate("price < 10 and exists price"),
						Data(xmltree.MustParse(`<item><price>5</price><t>a &amp; b</t></item>`))),
					Or(
						URL("http://10.1.2.3:9020/", "/data[id=245]"),
						Difference(
							Data(xmltree.MustParse(`<item><price>9</price></item>`)),
							Count(URN("urn:X:Y")),
						),
					),
				),
			),
		),
	))

	ann := URN("urn:Big")
	ann.SetCard(1000000)
	ann.Annotate(AnnotDistinct, "title:5000")
	annotated := NewPlan("ann", "t:1", Display(Select(MustParsePredicate("price < 10"), ann)))

	traveled := fig3Plan()
	traveled.RetainOriginal()
	traveled.VisitedMemory().Mark("a:1", 0xfeed)
	traveled.VisitedMemory().Mark("b:1", 0xbeef)
	traveled.Extra = map[string]*xmltree.Node{
		"provenance": xmltree.MustParse(`<provenance algo="hmac-sha256"><visit at="10" server="a:1" sig="AAAA"/></provenance>`),
		"audit":      xmltree.MustParse(`<audit n="1"/>`),
	}

	escapes := NewPlan(`q"<&>`, "t:1", Display(Select(
		MustParsePredicate(`title contains '<tag>'`),
		Data(xmltree.MustParse(`<i>two &gt; one &amp; zero</i>`)),
	)))

	return map[string]*Plan{
		"all-ops":   allOps,
		"annotated": annotated,
		"traveled":  traveled,
		"escapes":   escapes,
		"bare-data": NewPlan("x", "t:1", Display(Data())),
	}
}

// TestStreamEncodeMatchesStaged is the frame-equivalence invariant at the
// algebra layer: EncodeFrame, and the bytes its encoder writes out, must be
// the staging-tree reference's stagedMarshal(p).String() exactly, for mutable
// plans and for decoded (frozen-payload) plans; and Marshal must be those
// bytes, decoded.
func TestStreamEncodeMatchesStaged(t *testing.T) {
	for name, p := range streamPlans(t) {
		want := stagedMarshal(p).String()

		enc := xmltree.GetFrameEncoder()
		EncodeFrame(p, enc)
		if got := enc.String(); got != want {
			t.Errorf("%s: streamed bytes diverge\n got %q\nwant %q", name, got, want)
		}
		var buf bytes.Buffer
		if _, err := enc.WriteTo(&buf); err != nil {
			t.Fatalf("%s: WriteTo: %v", name, err)
		}
		if buf.String() != want {
			t.Errorf("%s: WriteTo bytes diverge", name)
		}
		if doc := Marshal(p); !doc.Frozen() || doc.String() != want {
			t.Errorf("%s: Marshal is %q (frozen %v), want the frame %q", name, doc.String(), doc.Frozen(), want)
		}

		// A hop's-eye view: the decoded plan aliases frozen payloads; the
		// streamed re-encode must still match its staged re-encode.
		back, err := DecodeString(want)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		buf.Reset()
		enc.Reset()
		EncodeFrame(back, enc)
		n, err := enc.WriteTo(&buf)
		if err != nil {
			t.Fatalf("%s: WriteTo: %v", name, err)
		}
		if staged := stagedMarshal(back).String(); buf.String() != staged {
			t.Errorf("%s: decoded plan streams %q, stages %q", name, buf.String(), staged)
		} else if n != int64(len(staged)) || enc.Len() != len(staged) {
			t.Errorf("%s: WriteTo reported %d bytes, Len %d, wrote %d", name, n, enc.Len(), len(staged))
		}
		enc.Release()
	}
}

// streamFuzzSeeds are FuzzStreamEncodeEquivalence's in-code corpus: <mqp>
// frames covering every section a plan can carry.
var streamFuzzSeeds = []string{
	`<mqp id="q1" target="t:1"><plan><data><item><price>5</price></item></data></plan></mqp>`,
	`<mqp id="q2" target="t:1"><plan><select pred="price &lt; 10"><url href="h:9020" path="/data"/></select></plan></mqp>`,
	`<mqp id="q3" target="t:1"><plan><join leftkey="k" leftname="l" rightkey="k" rightname="r">` +
		`<urn name="urn:a"/><urn name="urn:b"/></join></plan></mqp>`,
	`<mqp id="q4" target="t:1"><plan><topn by="price" n="3" order="desc"><data/></topn></plan>` +
		`<original><data/></original><visited b="4">a:1 2 AQ;b:1 1 Ag</visited></mqp>`,
	`<mqp id="q5" target="t:1"><plan><data><i>cd &amp; entities &gt; here</i></data></plan>` +
		`<provenance><visit server="s&quot;1"/></provenance></mqp>`,
	`<mqp id="q6" target="t:1"><plan><data><i><![CDATA[a<b&c]]></i></data></plan></mqp>`,
	`<mqp id="q7" target="t:1"><plan><count><project as="p" fields="a,b">` +
		`<annotations><annot k="card" v="12"/></annotations><union><data/><data/></union></project></count></plan></mqp>`,
	`<mqp id="&#113;8" target="t:1"><plan><display><data><x>&#65;&amp;</x></data></display></plan>` +
		`<visited>legacy:1 1 AA</visited></mqp>`,
	`<mqp id="q9" target="t:1"><plan><union><urn name="urn:InterestArea:(USA.OR.Portland,Furniture.Chairs)"/><data/></union></plan>` +
		`<visited b="6">m:9020 2 FnYrjV5vcIE</visited></mqp>`,
}

// FuzzStreamEncodeEquivalence: for any decodable <mqp> frame, the streamed
// frame bytes must be byte-identical to the staging-tree reference's
// serialization, stagedMarshal(p).String() —
// both for the decoded plan (frozen payloads ride as zero-copy segments) and
// for a fully mutable reconstruction of the same plan.
func FuzzStreamEncodeEquivalence(f *testing.F) {
	for _, seed := range streamFuzzSeeds {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, s string) {
		p, err := DecodeString(s)
		if err != nil {
			return
		}
		staged := stagedMarshal(p).String()
		enc := xmltree.GetFrameEncoder()
		defer enc.Release()
		EncodeFrame(p, enc)
		if got := enc.String(); got != staged {
			t.Fatalf("decoded plan: streamed %q != staged %q (input %q)", got, staged, s)
		}

		// Mutable variant: rebuild the same plan from ParseString's clone, no
		// node of which carries a serialization memo, then compare again.
		doc, err := xmltree.ParseString(staged)
		if err != nil {
			t.Fatalf("reparse canonical form: %v", err)
		}
		mp, err := Unmarshal(doc)
		if err != nil {
			t.Fatalf("unmarshal canonical form: %v", err)
		}
		mstaged := stagedMarshal(mp).String()
		enc.Reset()
		EncodeFrame(mp, enc)
		if got := enc.String(); got != mstaged {
			t.Fatalf("mutable plan: streamed %q != staged %q (input %q)", got, mstaged, s)
		}
	})
}
