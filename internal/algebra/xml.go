package algebra

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/xmltree"
)

// XML serialization of mutant query plans (§2: "an algebraic query plan
// graph, encoded in XML"). The element vocabulary:
//
//	<mqp id="q1" target="129.95.50.105:9020">
//	  <plan> one operator element </plan>
//	  <original> optional retained original plan </original>
//	  ... extra sections (e.g. <provenance>) preserved verbatim ...
//	</mqp>
//
// Operator elements:
//
//	<data> verbatim item elements </data>
//	<url href="http://10.1.2.3:9020/" path="/data[id=245]"/>
//	<urn name="urn:ForSale:Portland-CDs"/>
//	<select pred="price &lt; 10"> child </select>
//	<project as="item" fields="name,price"> child </project>
//	<join leftkey="title" rightkey="CD" leftname="sale" rightname="listing">
//	  left right </join>
//	<union> children </union>
//	<or> children </or>
//	<difference> left right </difference>
//	<count> child </count>
//	<topn n="10" by="price" order="asc"> child </topn>
//	<display> child </display>
//
// Any operator element may carry an <annotations> first child with
// <annot k="..." v="..."/> entries (§5.1).

// annotationsElem is the reserved element name for annotation blocks.
const annotationsElem = "annotations"

func joinFields(fields []string) string { return strings.Join(fields, ",") }

func splitFields(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// nodeArena batch-allocates the mutable operator shell a hop rewrites: the
// operator nodes of one unmarshaled tree sit in one contiguous block (better
// locality for the rewrite walks), sized to that tree and owned by it alone,
// so retaining an operator retains its own tree and no other plan's. Only the
// shell is arena-backed — data payloads and extra sections stay frozen aliases
// of the decoder output.
type nodeArena []Node

func (a *nodeArena) take() *Node {
	n := &(*a)[0]
	*a = (*a)[1:]
	return n
}

// countOps counts the operator elements unmarshalNode visits under e: every
// element but annotation blocks and the payload items of a <data>.
func countOps(e *xmltree.Node) int {
	n := 1
	if e.Name == "data" {
		return n
	}
	for _, c := range e.Kids() {
		if !c.IsText() && c.Name != annotationsElem {
			n += countOps(c)
		}
	}
	return n
}

// UnmarshalNode converts an XML element back into an operator subtree.
func UnmarshalNode(e *xmltree.Node) (*Node, error) {
	ar := make(nodeArena, countOps(e))
	return unmarshalNode(e, &ar)
}

func unmarshalNode(e *xmltree.Node, ar *nodeArena) (*Node, error) {
	n := ar.take()
	switch e.Name {
	case "data":
		n.Kind = KindData
	case "url":
		n.Kind = KindURL
		href, ok := e.Attr("href")
		if !ok {
			return nil, fmt.Errorf("algebra: <url> without href")
		}
		n.URL = href
		n.PathExp = e.AttrDefault("path", "")
	case "urn":
		n.Kind = KindURN
		name, ok := e.Attr("name")
		if !ok {
			return nil, fmt.Errorf("algebra: <urn> without name")
		}
		n.URN = name
	case "select":
		n.Kind = KindSelect
		ps, ok := e.Attr("pred")
		if !ok {
			return nil, fmt.Errorf("algebra: <select> without pred")
		}
		pred, err := ParsePredicate(ps)
		if err != nil {
			return nil, err
		}
		n.Pred = pred
	case "project":
		n.Kind = KindProject
		n.As = e.AttrDefault("as", "item")
		n.Fields = splitFields(e.AttrDefault("fields", ""))
	case "join":
		n.Kind = KindJoin
		n.LeftKey = e.AttrDefault("leftkey", "")
		n.RightKey = e.AttrDefault("rightkey", "")
		n.LeftName = e.AttrDefault("leftname", "l")
		n.RightName = e.AttrDefault("rightname", "r")
	case "union":
		n.Kind = KindUnion
	case "or":
		n.Kind = KindOr
	case "difference":
		n.Kind = KindDifference
	case "count":
		n.Kind = KindCount
	case "topn":
		n.Kind = KindTopN
		nv, err := strconv.Atoi(e.AttrDefault("n", "0"))
		if err != nil {
			return nil, fmt.Errorf("algebra: <topn> bad n: %w", err)
		}
		n.N = nv
		n.OrderBy = e.AttrDefault("by", "")
		n.Desc = e.AttrDefault("order", "asc") == "desc"
	case "display":
		n.Kind = KindDisplay
	default:
		return nil, fmt.Errorf("algebra: unknown operator element <%s>", e.Name)
	}
	kids := e.Kids()
	for i, c := range kids {
		if c.IsText() {
			continue
		}
		if c.Name == annotationsElem {
			for _, a := range c.ChildrenNamed("annot") {
				k, _ := a.Attr("k")
				v, _ := a.Attr("v")
				if k != "" {
					n.Annotate(k, v)
				}
			}
			continue
		}
		if n.Kind == KindData {
			if n.Docs == nil {
				// Everything from here on is payload: size the slice once
				// instead of growing it through appends (payloads routinely
				// carry dozens of items).
				n.Docs = make([]*xmltree.Node, 0, len(kids)-i)
			}
			// The receiver owns the decoded document, so payload items are
			// frozen in place and aliased instead of deep-cloned; every
			// later hop shares the same immutable subtree. (Decoder-produced
			// payloads are born frozen, making this a no-op per item.)
			n.Docs = append(n.Docs, c.Freeze())
			continue
		}
		child, err := unmarshalNode(c, ar)
		if err != nil {
			return nil, err
		}
		if n.Children == nil {
			n.Children = make([]*Node, 0, len(kids)-i)
		}
		n.Children = append(n.Children, child)
	}
	// The children passed their own checks as they were built.
	if err := n.validateNode(); err != nil {
		return nil, err
	}
	return n, nil
}

// soleElement returns the first element child of c and how many it has,
// without building the slice Elements would.
func soleElement(c *xmltree.Node) (first *xmltree.Node, n int) {
	for _, e := range c.Kids() {
		if !e.IsText() {
			if n == 0 {
				first = e
			}
			n++
		}
	}
	return first, n
}

// Marshal returns the plan's wire document: EncodeFrame's bytes, decoded.
// It is what a receiver sees, so it is born frozen (edit a Clone). It serves
// callers that hold a plan as a document, such as a client's prepared
// prototype; peers stage what they send with EncodeFrame. A plan whose
// hand-built payload carries an element name no decoder reads back cannot be
// marshaled, and Marshal panics on it.
func Marshal(p *Plan) *xmltree.Node {
	doc, err := xmltree.DecodeString(EncodeString(p))
	if err != nil {
		panic(fmt.Sprintf("algebra: plan %q does not decode: %v", p.ID, err))
	}
	return doc
}

// Unmarshal parses an <mqp> document back into a Plan. The mutable
// operator shell (plan and retained original) is allocated from an arena
// per tree; everything else — data payloads, extra sections — is frozen and
// aliased from the document.
func Unmarshal(doc *xmltree.Node) (*Plan, error) {
	p, err := UnmarshalEnvelope(doc)
	if err != nil {
		return nil, err
	}
	if err := p.Open(); err != nil {
		return nil, err
	}
	return p, nil
}

// UnmarshalEnvelope is Unmarshal without the operator tree: it reads the id,
// the target, <original>, <visited> and the extra sections, checks that
// <plan> holds exactly one operator element, and keeps that element instead
// of building Root from it. Root stays nil until Open. A processor that has
// prepared a plan with these exact operator bytes (PreparedKey) never builds
// the tree at all.
func UnmarshalEnvelope(doc *xmltree.Node) (*Plan, error) {
	if doc.Name != "mqp" {
		return nil, fmt.Errorf("algebra: expected <mqp>, got <%s>", doc.Name)
	}
	p := &Plan{
		ID:     doc.AttrDefault("id", ""),
		Target: doc.AttrDefault("target", ""),
	}
	for _, c := range doc.Kids() {
		if c.IsText() {
			continue
		}
		switch c.Name {
		case "plan":
			op, n := soleElement(c)
			if n != 1 {
				return nil, fmt.Errorf("algebra: <plan> must have exactly one operator, has %d", n)
			}
			p.src = op
		case "original":
			op, n := soleElement(c)
			if n != 1 {
				return nil, fmt.Errorf("algebra: <original> must have exactly one operator")
			}
			orig, err := UnmarshalNode(op)
			if err != nil {
				return nil, err
			}
			p.Original = orig
		case visitedElem:
			v, err := UnmarshalVisited(c)
			if err != nil {
				return nil, err
			}
			p.Visited = v
		default:
			if p.Extra == nil {
				p.Extra = map[string]*xmltree.Node{}
			}
			// Extra sections (provenance above all) are re-emitted verbatim
			// on the next hop; freeze-and-alias so forwarding never copies
			// them.
			p.Extra[c.Name] = c.Freeze()
		}
	}
	if p.src == nil {
		return nil, fmt.Errorf("algebra: <mqp> without <plan>")
	}
	return p, nil
}

// Open builds Root from the operator element UnmarshalEnvelope kept. On a
// plan whose Root is already there it does nothing.
func (p *Plan) Open() error {
	if p.Root != nil || p.src == nil {
		return nil
	}
	root, err := UnmarshalNode(p.src)
	if err != nil {
		return err
	}
	p.Root, p.src = root, nil
	return nil
}

// PreparedKey returns the exact bytes of the plan's operator tree, which are
// what a wire hop carries between <plan> and </plan>, for a cache of prepared
// plans to find it by. It reports false for a tree that carries payload
// documents, which is never keyed. An operator element kept from a decoded
// frame answers from its clean-span memo without copying. Any other tree is
// serialized once into *buf, which grows as needed. The key aliases the memo
// or *buf: it must not be modified, and a caller that keeps it keeps a copy.
func (p *Plan) PreparedKey(buf *[]byte) ([]byte, bool) {
	if p.Root == nil {
		if p.src == nil || carriesDocs(p.src) {
			return nil, false
		}
		if s, ok := p.src.FrozenSerialization(); ok {
			return unsafe.Slice(unsafe.StringData(s), len(s)), true
		}
	} else if hasDocs(p.Root) {
		return nil, false
	}
	enc := xmltree.GetFrameEncoder()
	if p.Root != nil {
		encodeFrameNode(p.Root, enc, nil)
	} else {
		enc.Node(p.src)
	}
	*buf = enc.AppendString((*buf)[:0])
	enc.Release()
	return *buf, true
}

// hasDocs reports whether a data leaf in the subtree carries payload
// documents.
func hasDocs(root *Node) (found bool) {
	root.Walk(func(m *Node) bool {
		found = found || m.Kind == KindData && len(m.Docs) > 0
		return !found
	})
	return found
}

// carriesDocs is hasDocs on an operator element not yet unmarshaled: whether
// a <data> in it holds an element that unmarshalNode would take as payload.
func carriesDocs(e *xmltree.Node) bool {
	for _, c := range e.Kids() {
		if c.IsText() || c.Name == annotationsElem {
			continue
		}
		if e.Name == "data" || carriesDocs(c) {
			return true
		}
	}
	return false
}

// Decode parses a serialized plan through the zero-copy receive path: the
// stream is buffered once and the document is decoded straight from that
// buffer (xmltree.Decode), so plan payloads alias the read bytes instead of
// being re-stringified.
func Decode(r io.Reader) (*Plan, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	doc, err := xmltree.Decode(buf)
	if err != nil {
		return nil, err
	}
	return Unmarshal(doc)
}

// DecodeString parses a plan from its XML string form, zero-copy: decoded
// payloads alias the string.
func DecodeString(s string) (*Plan, error) {
	doc, err := xmltree.DecodeString(s)
	if err != nil {
		return nil, err
	}
	return Unmarshal(doc)
}
