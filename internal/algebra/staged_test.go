package algebra

import (
	"sort"
	"strconv"

	"repro/internal/xmltree"
)

// The staging-tree plan serializer, kept as the reference EncodeFrame is
// held to (TestStreamEncodeMatchesStaged, FuzzStreamEncodeEquivalence): a
// plan becomes an xmltree document first, and the canonical serializer
// prints that. It shipped until peers sent every plan through EncodeFrame.

// stagedMarshal converts a plan to a mutable staging tree whose String is the
// plan's wire form.
func stagedMarshal(p *Plan) *xmltree.Node {
	doc := xmltree.ElemAttrs("mqp",
		xmltree.Attr{Name: "id", Value: p.ID},
		xmltree.Attr{Name: "target", Value: p.Target})
	doc.Add(xmltree.Elem("plan", marshalNode(p.Root)))
	if p.Original != nil {
		doc.Add(xmltree.Elem("original", marshalNode(p.Original)))
	}
	if p.Visited != nil && (p.Visited.Len() > 0 || p.Visited.Budget > 0) {
		doc.Add(p.Visited.Marshal())
	}
	keys := make([]string, 0, len(p.Extra))
	for k := range p.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		doc.Add(p.Extra[k].Share())
	}
	return doc
}

// marshalNode renders an operator subtree as a staging tree. Frozen data
// payloads are aliased and mutable ones deep-copied (Share), so the tree is
// the caller's to edit.
func marshalNode(n *Node) *xmltree.Node {
	var e *xmltree.Node
	switch n.Kind {
	case KindURL:
		if n.PathExp != "" {
			e = xmltree.ElemAttrs("url",
				xmltree.Attr{Name: "href", Value: n.URL},
				xmltree.Attr{Name: "path", Value: n.PathExp})
		} else {
			e = xmltree.ElemAttrs("url", xmltree.Attr{Name: "href", Value: n.URL})
		}
	case KindURN:
		e = xmltree.ElemAttrs("urn", xmltree.Attr{Name: "name", Value: n.URN})
	case KindSelect:
		e = xmltree.ElemAttrs("select", xmltree.Attr{Name: "pred", Value: n.Pred.String()})
	case KindProject:
		e = xmltree.ElemAttrs("project",
			xmltree.Attr{Name: "as", Value: n.As},
			xmltree.Attr{Name: "fields", Value: joinFields(n.Fields)})
	case KindJoin:
		e = xmltree.ElemAttrs("join",
			xmltree.Attr{Name: "leftkey", Value: n.LeftKey},
			xmltree.Attr{Name: "rightkey", Value: n.RightKey},
			xmltree.Attr{Name: "leftname", Value: n.LeftName},
			xmltree.Attr{Name: "rightname", Value: n.RightName})
	case KindTopN:
		order := "asc"
		if n.Desc {
			order = "desc"
		}
		e = xmltree.ElemAttrs("topn",
			xmltree.Attr{Name: "n", Value: strconv.Itoa(n.N)},
			xmltree.Attr{Name: "by", Value: n.OrderBy},
			xmltree.Attr{Name: "order", Value: order})
	default:
		e = xmltree.Elem(n.Kind.String())
	}
	if len(n.Annotations) > 0 {
		keys := make([]string, 0, len(n.Annotations))
		for k := range n.Annotations {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ann := xmltree.Elem(annotationsElem)
		for _, k := range keys {
			ann.Add(xmltree.ElemAttrs("annot",
				xmltree.Attr{Name: "k", Value: k},
				xmltree.Attr{Name: "v", Value: n.Annotations[k]}))
		}
		e.Add(ann)
	}
	if n.Kind == KindData {
		for _, d := range n.Docs {
			e.Add(d.Share())
		}
	}
	for _, c := range n.Children {
		e.Add(marshalNode(c))
	}
	return e
}

// walkDataPayloads visits every payload slot under the <data> operators of
// a plan document's <plan> and <original> sections: fn(data, i) addresses
// data.Children[i], a non-text, non-annotations child of a <data> element.
// The walk follows the operator grammar — it recurses through operator
// elements and stops at <data>, so payload content (arbitrary user XML,
// which may itself contain <data> or <blob> elements) is never descended
// into.
func walkDataPayloads(body *xmltree.Node, fn func(data *xmltree.Node, i int)) {
	var op func(e *xmltree.Node)
	op = func(e *xmltree.Node) {
		for i, c := range e.Children {
			if c.IsText() || c.Name == annotationsElem {
				continue
			}
			if e.Name == "data" {
				fn(e, i)
			} else {
				op(c)
			}
		}
	}
	for _, sec := range body.Children {
		if sec.Name == "plan" || sec.Name == "original" {
			for _, c := range sec.Children {
				if !c.IsText() {
					op(c)
				}
			}
		}
	}
}
