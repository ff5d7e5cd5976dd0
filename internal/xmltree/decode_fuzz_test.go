package xmltree

import (
	"strings"
	"testing"
	"unsafe"
)

func unsafeStringData(s string) *byte { return unsafe.StringData(s) }

// FuzzDecodeEquivalence is the differential oracle for the zero-copy
// decoder: on every input, Decode and the encoding/xml-based parseReference
// must agree — both reject, or both accept with structurally equal trees and
// identical canonical serializations. The seeds cover the wire vocabulary,
// every tokenizer quirk the decoder mirrors (entities, CDATA, CR/LF
// rewriting, comments, xml declarations) and the constructs both refuse
// (namespace prefixes and declarations, directives, other processing
// instructions); regression entries found by fuzzing live in
// testdata/fuzz/FuzzDecodeEquivalence.
//
// The sealed arm holds DecodeString's sealed payload items to an eager
// decode of the same input: the same error or none, and once every sealed
// item is built, an equal tree with the same serialization.
func FuzzDecodeEquivalence(f *testing.F) {
	for _, s := range decodeCases {
		f.Add(s)
	}
	f.Add(`<mqp id="q" target="c:1"><plan><union><data><i>1</i></data><url href="h:1" path="/d"/></union></plan>` +
		`<visited b="3">m:9020 2 q29tcGFjdA;s:1 1 AAAAAAAB</visited><provenance algo="hmac-sha256"><visit at="1000" server="a:1"/></provenance></mqp>`)
	f.Add(`<mqp id="q" target="c:1"><plan><data/></plan><visited b="6">m:9020 2 q29tcGFjdA` +
		`<a s="s1:9020" u="urn:InterestArea:(USA.OR.Portland,Music.CDs)"/><a s="s2:9020" u="urn:InterestArea:(*,Furniture.Chairs)"/></visited></mqp>`)
	for _, s := range sealedCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 1<<16 {
			t.Skip("oversized input")
		}
		ref, refErr := parseReference(s)
		got, gotErr := DecodeString(s)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("accept/reject disagreement:\ninput: %q\nParse err:  %v\nDecode err: %v", s, refErr, gotErr)
		}
		checkSealed(t, s)
		if refErr != nil {
			return
		}
		if !Equal(ref, got) {
			t.Fatalf("tree disagreement:\ninput: %q\nParse:  %q\nDecode: %q", s, ref.String(), got.String())
		}
		assertNormal(t, ref, s)
		assertNormal(t, got, s)
		if rs, gs := ref.String(), got.String(); rs != gs {
			t.Fatalf("serialization disagreement:\ninput: %q\nParse:  %q\nDecode: %q", s, rs, gs)
		}
		// Decoder output must be frozen at birth with exact memoized sizes:
		// the born-frozen contract the receive path relies on.
		if !got.Frozen() {
			t.Fatalf("decoded root not frozen: %q", s)
		}
		if got.ByteSize() != len(got.String()) {
			t.Fatalf("decoded ByteSize %d != serialized length %d: %q", got.ByteSize(), len(got.String()), s)
		}
		assertSizedBounded(t, got, s)
		// And decoding the canonical form must reproduce the tree (the
		// fixpoint property Parse already guarantees).
		c := got.String()
		got2, err := DecodeString(c)
		if err != nil {
			t.Fatalf("canonical form rejected by Decode: %v\ncanonical: %q", err, c)
		}
		if !Equal(got, got2) {
			t.Fatalf("canonical re-decode differs:\ncanonical: %q", c)
		}
		assertNormal(t, got2, c)
	})
}

// FuzzDecodeBytes drives the []byte entry point (the wire path) to make
// sure the unsafe buffer-to-string view never diverges from DecodeString.
func FuzzDecodeBytes(f *testing.F) {
	f.Add([]byte(`<a b="1">x<c/></a>`))
	f.Add([]byte(`<a>&amp;<![CDATA[x]]></a>`))
	f.Fuzz(func(t *testing.T, buf []byte) {
		if len(buf) > 1<<16 {
			t.Skip("oversized input")
		}
		want, wantErr := DecodeString(strings.Clone(string(buf)))
		got, gotErr := Decode(buf)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("Decode/DecodeString disagreement: %v vs %v on %q", gotErr, wantErr, buf)
		}
		if wantErr != nil {
			return
		}
		if !Equal(want, got) {
			t.Fatalf("Decode tree differs from DecodeString on %q", buf)
		}
		assertNormal(t, got, string(buf))
		assertSizedBounded(t, got, string(buf))
	})
}

// assertSizedBounded is assertSized for fuzz inputs: the walk re-serializes
// every subtree, which is quadratic in depth, so inputs long enough to nest
// thousands deep keep to the root-level checks.
func assertSizedBounded(t *testing.T, n *Node, input string) {
	t.Helper()
	if len(input) <= 1<<12 {
		assertSized(t, n, input)
	}
}

// sealedCases seed the sealed arm: payload items with entities (which fail
// the clean check and decode eagerly), <a></a>, deep nesting, unsorted
// attributes, mixed content, a nested <data>, errors inside an item, and
// unclean items nested in unclean items, beside clean ones.
var sealedCases = []string{
	`<mqp><plan><data><item id="1"><name>A &amp; B</name><price>3</price></item><item id="2"><name>C</name></item></data></plan></mqp>`,
	`<data><item><a></a><b>x</b></item><item><c/></item></data>`,
	`<data><i><a><b><c><d><e><f>x</f></e></d></c></b></a></i><i><a>y</a></i></data>`,
	`<data><item z="1" a="2"><f>x</f></item><item a="1" z="2"><f y="2" b="1">t</f></item></data>`,
	`<data><data><x><y/></x></data><annotations><annot k="a" v="b"/></annotations><i>t<j/>u</i></data>`,
	`<data><i>lead<j/>tail<!--c--></i><i><j> </j></i><i x='1'><j/></i></data>`,
	`<data><i><j></i></data>`,
	`<data><i><j>&bogus;</j></i></data>`,
	`<data><i><j>x</j>`,
	`<data><i><data><i><j>&amp;</j></i><i><j>k</j></i></data></i><i><j>x</j></i></data>`,
}

// checkSealed is the sealed arm of FuzzDecodeEquivalence.
func checkSealed(t *testing.T, s string) {
	t.Helper()
	eager, _, eagerErr := decode(s, false)
	sealed, _, sealedErr := decode(s, true)
	if (eagerErr == nil) != (sealedErr == nil) || eagerErr != nil && eagerErr.Error() != sealedErr.Error() {
		t.Fatalf("sealed and eager decodes disagree:\ninput: %q\neager err:  %v\nsealed err: %v", s, eagerErr, sealedErr)
	}
	if eagerErr != nil {
		return
	}
	buildAll(sealed)
	if !Equal(eager, sealed) {
		t.Fatalf("sealed tree, built, differs from the eager one:\ninput: %q\neager:  %q\nsealed: %q", s, eager.String(), sealed.String())
	}
	if es, ss := eager.String(), sealed.String(); es != ss {
		t.Fatalf("sealed and eager serializations differ:\ninput: %q\neager:  %q\nsealed: %q", s, es, ss)
	}
	assertSizedBounded(t, sealed, s)
}

// buildAll builds every sealed node of the tree.
func buildAll(n *Node) {
	for _, c := range n.Kids() {
		buildAll(c)
	}
}
