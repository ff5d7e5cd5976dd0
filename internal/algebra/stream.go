package algebra

import (
	"sort"
	"strconv"
	"unsafe"

	"repro/internal/xmltree"
)

// Streaming plan encoder: the plan's wire bytes, with no staging tree.
//
// EncodeFrame walks the plan directly, emitting canonical markup for the
// mutable operator shell and handing frozen freight — data payloads, the
// visited section, extra sections like provenance — to the FrameEncoder,
// which copies each from its memoized serialization. It is the one encoder a
// plan has: peers send through it, Marshal decodes its bytes, and the
// staging-tree reference it replaced survives only in the tests
// (FuzzStreamEncodeEquivalence holds the two to the same bytes). A forwarded
// plan materializes no staging tree, and payloads that crossed the wire
// before are never re-walked: each is one copy of its memo into the frame.
//
// Attribute emission must match the canonical serializer's sorted order, so
// each operator lists its attributes alphabetically here (join emits
// leftkey, leftname, rightkey, rightname; topn emits by, n, order; the root
// emits blobs, id, target).

// EncodeFrame stages the plan's canonical wire form into enc: what peers ship
// each other, whose size the paper's optimization discussion (partial-result
// size) is about. The staged frame is enc's own copy: the plan may be mutated
// as soon as EncodeFrame returns.
func EncodeFrame(p *Plan, enc *xmltree.FrameEncoder) { EncodeFrameRefs(p, enc, nil) }

// EncodeFrameRefs is EncodeFrame for a payload-by-reference sender. The root
// is marked BlobsAttr, and each payload document under a <data> operator that
// ref names is written as a reference instead of its bytes: ref appends the
// payload's fingerprint wire form to dst and reports true, or declines. ref
// sees the payloads in document order, and consecutive payloads of one <data>
// it names share one <blob fp="fp1 fp2 …"/>. A plan holding a payload element
// named blob would be misread once marked, so it is staged plain and
// unmarked, and ref is never called. A nil ref is EncodeFrame.
func EncodeFrameRefs(p *Plan, enc *xmltree.FrameEncoder, ref func(doc *xmltree.Node, dst []byte) ([]byte, bool)) {
	var refs *refWriter
	if ref != nil && !holdsBlobElem(p.Root) && !holdsBlobElem(p.Original) {
		refs = &refWriter{ref: ref}
	}
	enc.Raw("<mqp")
	if refs != nil {
		enc.Attr(BlobsAttr, "1")
	}
	enc.Attr("id", p.ID)
	enc.Attr("target", p.Target)
	enc.RawByte('>')
	enc.Raw("<plan>")
	encodeFrameNode(p.Root, enc, refs)
	enc.Raw("</plan>")
	if p.Original != nil {
		enc.Raw("<original>")
		encodeFrameNode(p.Original, enc, refs)
		enc.Raw("</original>")
	}
	if p.Visited != nil && p.Visited.Len() > 0 {
		enc.Node(p.Visited.Marshal())
	}
	if len(p.Extra) > 0 {
		keys := make([]string, 0, len(p.Extra))
		for k := range p.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			enc.Node(p.Extra[k])
		}
	}
	enc.Raw("</mqp>")
}

// holdsBlobElem reports whether a payload under n's <data> operators is an
// element named blob.
func holdsBlobElem(n *Node) (found bool) {
	n.Walk(func(m *Node) bool {
		if m.Kind == KindData {
			for _, d := range m.Docs {
				found = found || d.Name == blobElem
			}
		}
		return !found
	})
	return found
}

// refWriter stages one frame's payload references. buf carries one
// fingerprint's wire form from ref into the encoder; the first reference
// allocates it and the rest of the frame reuses it, so a plan staged with
// no reference allocates nothing here.
type refWriter struct {
	ref func(doc *xmltree.Node, dst []byte) ([]byte, bool)
	buf []byte
}

// docs stages a <data> operator's payloads: inline, or, for each run of
// consecutive payloads ref names, one <blob fp="…"/> listing their
// fingerprints. A nil w stages every payload inline.
func (w *refWriter) docs(docs []*xmltree.Node, enc *xmltree.FrameEncoder) {
	open := false // a <blob fp=" run is staged and not yet closed
	for _, d := range docs {
		if w != nil {
			if buf, ok := w.ref(d, w.buf[:0]); ok {
				w.buf = buf
				if open {
					enc.RawByte(' ')
				} else {
					enc.Raw(`<` + blobElem + ` ` + blobFPAttr + `="`)
					open = true
				}
				// Raw copies the bytes before buf is written again.
				enc.Raw(unsafe.String(unsafe.SliceData(buf), len(buf)))
				continue
			}
		}
		if open {
			enc.Raw(`"/>`)
			open = false
		}
		enc.Node(d)
	}
	if open {
		enc.Raw(`"/>`)
	}
}

// framed stages p into a pooled encoder; the caller releases it.
func framed(p *Plan) *xmltree.FrameEncoder {
	enc := xmltree.GetFrameEncoder()
	EncodeFrame(p, enc)
	return enc
}

// EncodeString returns the plan's canonical XML serialization.
func EncodeString(p *Plan) string {
	enc := framed(p)
	defer enc.Release()
	return enc.String()
}

// WireSize returns the serialized byte size of the plan.
func WireSize(p *Plan) int {
	enc := framed(p)
	defer enc.Release()
	return enc.Len()
}

// encodeFrameNode emits one operator subtree in canonical form, payloads refs
// names as references.
func encodeFrameNode(n *Node, enc *xmltree.FrameEncoder, refs *refWriter) {
	var name string
	switch n.Kind {
	case KindURL:
		name = "url"
		enc.Raw("<url")
		enc.Attr("href", n.URL)
		if n.PathExp != "" {
			enc.Attr("path", n.PathExp)
		}
	case KindURN:
		name = "urn"
		enc.Raw("<urn")
		enc.Attr("name", n.URN)
	case KindSelect:
		name = "select"
		enc.Raw("<select")
		enc.Attr("pred", n.Pred.String())
	case KindProject:
		name = "project"
		enc.Raw("<project")
		enc.Attr("as", n.As)
		enc.Attr("fields", joinFields(n.Fields))
	case KindJoin:
		name = "join"
		enc.Raw("<join")
		enc.Attr("leftkey", n.LeftKey)
		enc.Attr("leftname", n.LeftName)
		enc.Attr("rightkey", n.RightKey)
		enc.Attr("rightname", n.RightName)
	case KindTopN:
		name = "topn"
		enc.Raw("<topn")
		enc.Attr("by", n.OrderBy)
		enc.Attr("n", strconv.Itoa(n.N))
		if n.Desc {
			enc.Attr("order", "desc")
		} else {
			enc.Attr("order", "asc")
		}
	default:
		name = n.Kind.String()
		enc.RawByte('<')
		enc.Raw(name)
	}
	docs := n.Docs
	if n.Kind != KindData {
		// Docs on a non-data operator are never written; they must not
		// keep the element from self-closing.
		docs = nil
	}
	if len(n.Children) == 0 && len(docs) == 0 && len(n.Annotations) == 0 {
		enc.Raw("/>")
		return
	}
	enc.RawByte('>')
	if len(n.Annotations) > 0 {
		keys := make([]string, 0, len(n.Annotations))
		for k := range n.Annotations {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		enc.Raw("<annotations>")
		for _, k := range keys {
			enc.Raw("<annot")
			enc.Attr("k", k)
			enc.Attr("v", n.Annotations[k])
			enc.Raw("/>")
		}
		enc.Raw("</annotations>")
	}
	refs.docs(docs, enc)
	for _, c := range n.Children {
		encodeFrameNode(c, enc, refs)
	}
	enc.Raw("</")
	enc.Raw(name)
	enc.RawByte('>')
}
