package algebra

import (
	"fmt"

	"repro/internal/xmltree"
)

// Payload-by-reference wire sections. A sender whose receiver holds a
// payload store may replace a payload document under a <data> operator with
// a reference element
//
//	<blob fp="…"/>
//
// naming the payload's content fingerprint (internal/blobstore wire form),
// and marks the <mqp> root with blobs="1" so the receiver knows to resolve
// references. The mark says nothing about capability: whether the receiver
// holds a store is the transport's to say. An unmarked body is never
// interpreted: its <blob> elements, if any, are ordinary payload data.
// Correctness never depends on the optimization — a receiver that misses a
// fingerprint fetches the payload from the sender (the on-demand inline
// fallback), and a sender in doubt ships inline.

// BlobsAttr marks an <mqp> root whose <blob> payload children are references
// to be resolved.
const BlobsAttr = "blobs"

const (
	blobElem   = "blob"
	blobFPAttr = "fp"
)

// IsBlobRef reports whether a payload element has the shape of a reference:
// a childless <blob> carrying an fp attribute. Payload data of this exact
// shape is ambiguous with the extension, so senders refuse to mark plans
// containing it (see EncodeFrameRefs) and it travels inline, uninterpreted.
func IsBlobRef(n *xmltree.Node) (string, bool) {
	if n == nil || n.Name != blobElem {
		return "", false
	}
	fp, ok := n.Attr(blobFPAttr)
	if !ok {
		return "", false
	}
	for _, c := range n.Children {
		if !c.IsText() {
			return "", false
		}
	}
	return fp, true
}

// Marked reports whether an <mqp> body is marked as carrying references to
// resolve.
func Marked(body *xmltree.Node) bool {
	return body != nil && body.AttrDefault(BlobsAttr, "") != ""
}

// ResolveBlobs returns a body with every <blob> payload reference replaced
// by the document resolve returns for its fingerprint, and (when intern is
// non-nil) every inline payload document replaced by intern's canonical
// alias for it. Bodies not marked with BlobsAttr pass through untouched —
// their <blob> elements are data.
//
// The input body is never mutated (it is typically a frozen decode);
// rebuilt spines are copy-on-write and untouched subtrees are aliased. A
// reference that is malformed (no resolvable payload shape), unknown to
// resolve, or mixed with inline content is an error: the message cannot be
// evaluated correctly without the bytes, so it must fail loudly rather than
// drop payloads.
func ResolveBlobs(body *xmltree.Node, resolve func(fp string) (*xmltree.Node, error),
	intern func(doc *xmltree.Node) *xmltree.Node) (*xmltree.Node, error) {
	if !Marked(body) {
		return body, nil
	}
	var opErr error
	var op func(e *xmltree.Node) *xmltree.Node
	op = func(e *xmltree.Node) *xmltree.Node {
		if opErr != nil {
			return e
		}
		if e.Name == "data" {
			var out *xmltree.Node // lazily created shallow copy
			for i, c := range e.Children {
				if c.IsText() || c.Name == annotationsElem {
					continue
				}
				repl := c
				if c.Name == blobElem {
					fpStr, ok := IsBlobRef(c)
					if !ok {
						fp, hasFP := c.Attr(blobFPAttr)
						if !hasFP {
							opErr = fmt.Errorf("algebra: <blob> reference without fp")
						} else {
							opErr = fmt.Errorf("algebra: <blob fp=%q> carries inline content: reference/inline conflict", fp)
						}
						return e
					}
					doc, err := resolve(fpStr)
					if err != nil {
						opErr = fmt.Errorf("algebra: blob %s: %w", fpStr, err)
						return e
					}
					repl = doc.Freeze()
				} else if intern != nil {
					repl = intern(c)
				}
				if repl != c {
					if out == nil {
						out = e.CloneShallow()
					}
					out.Children[i] = repl
				}
			}
			if out != nil {
				return out
			}
			return e
		}
		var out *xmltree.Node
		for i, c := range e.Children {
			if c.IsText() || c.Name == annotationsElem {
				continue
			}
			if r := op(c); r != c {
				if out == nil {
					out = e.CloneShallow()
				}
				out.Children[i] = r
			}
		}
		if out != nil {
			return out
		}
		return e
	}

	var root *xmltree.Node
	for si, sec := range body.Children {
		if sec.IsText() || (sec.Name != "plan" && sec.Name != "original") {
			continue
		}
		var secOut *xmltree.Node
		for i, c := range sec.Children {
			if c.IsText() {
				continue
			}
			if r := op(c); r != c {
				if secOut == nil {
					secOut = sec.CloneShallow()
				}
				secOut.Children[i] = r
			}
			if opErr != nil {
				return nil, opErr
			}
		}
		if secOut != nil {
			if root == nil {
				root = body.CloneShallow()
			}
			root.Children[si] = secOut
		}
	}
	if root != nil {
		return root, nil
	}
	return body, nil
}
