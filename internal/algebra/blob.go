package algebra

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/xmltree"
)

// Payload-by-reference wire sections. A sender whose receiver holds a
// payload store may replace payload documents under a <data> operator with
// references naming each payload's content fingerprint (internal/blobstore
// wire form). Consecutive referenced payloads of one <data> share one
// element, their fingerprints space-separated in document order:
//
//	<blob fp="fp1 fp2 …"/>
//
// so a reference alone costs 35 bytes and each further one in a run 23 (a
// run of one is the single-reference element). The sender marks the <mqp>
// root with blobs="1" so the receiver knows to resolve references. The mark
// says nothing about capability: whether the receiver holds a store is the
// transport's to say. An unmarked body is never interpreted: its <blob>
// elements, if any, are ordinary payload data, and a plan holding such data
// is never marked. Correctness never depends on the optimization — a
// receiver that misses a fingerprint fetches the payload from the sender
// (the on-demand inline fallback), and a sender in doubt ships inline.

// BlobsAttr marks an <mqp> root whose <blob> payload children are references
// to be resolved.
const BlobsAttr = "blobs"

const (
	blobElem   = "blob"
	blobFPAttr = "fp"
)

// IsBlobRef reports whether a payload element is a reference in its one
// wire form, <blob fp="…"/> with no other attribute, no text and no
// children, and returns its fp value: one fingerprint or a space-separated
// run of them.
func IsBlobRef(n *xmltree.Node) (string, bool) {
	if n == nil || n.Name != blobElem || n.Text != "" || len(n.Kids()) > 0 ||
		len(n.Attrs) != 1 || n.Attrs[0].Name != blobFPAttr {
		return "", false
	}
	return n.Attrs[0].Value, true
}

// Marked reports whether an <mqp> body is marked as carrying references to
// resolve.
func Marked(body *xmltree.Node) bool {
	return body != nil && body.AttrDefault(BlobsAttr, "") != ""
}

// ResolveBlobs returns a body with every <blob> payload reference replaced,
// in place and in order, by the documents resolve returns for its
// fingerprints, and (when intern is non-nil) every inline payload document
// replaced by intern's canonical alias for it. resolve is handed each
// fingerprint of a run as a substring of the attribute, never a copy. Bodies
// not marked with BlobsAttr pass through untouched — their <blob> elements
// are data.
//
// The input body is never mutated (it is typically a frozen decode);
// rebuilt spines are copy-on-write and untouched subtrees are aliased. In a
// marked body every payload element named blob must be a reference
// (IsBlobRef): one that is not, a run with an empty fingerprint, and a
// fingerprint resolve cannot answer each fail the whole body. The message
// cannot be evaluated correctly without the bytes, so it must fail loudly
// rather than drop payloads.
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
			out, err := resolveData(e, resolve, intern)
			opErr = err
			return out
		}
		var out *xmltree.Node
		for i, c := range e.Kids() {
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
	for si, sec := range body.Kids() {
		if sec.IsText() || (sec.Name != "plan" && sec.Name != "original") {
			continue
		}
		var secOut *xmltree.Node
		for i, c := range sec.Kids() {
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

// resolveData is ResolveBlobs for one <data> operator: e itself when no
// payload changes, else a copy whose children are rebuilt once, sized for
// every run it expands.
func resolveData(e *xmltree.Node, resolve func(fp string) (*xmltree.Node, error),
	intern func(doc *xmltree.Node) *xmltree.Node) (*xmltree.Node, error) {
	in := e.Kids()
	var kids []*xmltree.Node // nil until the first payload changes
	for i, c := range in {
		switch {
		case c.IsText() || c.Name == annotationsElem:
		case c.Name == blobElem:
			run, err := refRun(c)
			if err != nil {
				return e, err
			}
			if kids == nil {
				kids = expandedKids(in, i)
			}
			for run != "" {
				var fp string
				fp, run, _ = strings.Cut(run, " ")
				doc, err := resolve(fp)
				if err != nil {
					return e, fmt.Errorf("algebra: blob %s: %w", fp, err)
				}
				kids = append(kids, doc.Freeze())
			}
			continue
		case intern != nil:
			if repl := intern(c); repl != c {
				if kids == nil {
					kids = expandedKids(in, i)
				}
				kids = append(kids, repl)
				continue
			}
		}
		if kids != nil {
			kids = append(kids, c)
		}
	}
	if kids == nil {
		return e, nil
	}
	return &xmltree.Node{Name: e.Name, Text: e.Text, Attrs: slices.Clone(e.Attrs), Children: kids}, nil
}

// expandedKids starts the rebuilt child list of a <data> whose first changed
// payload is kids[i]: the unchanged prefix, with room for every payload
// after it, every fingerprint of a run counted.
func expandedKids(kids []*xmltree.Node, i int) []*xmltree.Node {
	n := len(kids)
	for _, c := range kids[i:] {
		if run, ok := IsBlobRef(c); ok {
			n += strings.Count(run, " ")
		}
	}
	return append(make([]*xmltree.Node, 0, n), kids[:i]...)
}

// refRun returns the fingerprint run of a payload element named blob in a
// marked body, or the error that fails the body: the element is not a
// reference, or its run holds an empty fingerprint.
func refRun(c *xmltree.Node) (string, error) {
	run, ok := IsBlobRef(c)
	fp, hasFP := c.Attr(blobFPAttr)
	switch {
	case !hasFP:
		return "", fmt.Errorf("algebra: <blob> reference without fp")
	case c.Text != "" || len(c.Kids()) > 0:
		return "", fmt.Errorf("algebra: <blob fp=%q> carries inline content: reference/inline conflict", fp)
	case !ok:
		return "", fmt.Errorf("algebra: <blob fp=%q> carries attributes besides fp", fp)
	case run == "" || run[0] == ' ' || run[len(run)-1] == ' ' || strings.Contains(run, "  "):
		return "", fmt.Errorf("algebra: <blob fp=%q>: empty fingerprint in run", run)
	}
	return run, nil
}
