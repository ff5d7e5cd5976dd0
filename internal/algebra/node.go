package algebra

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/xmltree"
)

// Kind identifies an operator in a plan graph.
type Kind int

// Operator kinds. Data/URL/URN are the three leaf forms the paper allows
// inside a mutant query plan: verbatim XML data, resource locations, and
// abstract resource names. Or is the "conjoint union" operator of §4.2.
const (
	KindData Kind = iota
	KindURL
	KindURN
	KindSelect
	KindProject
	KindJoin
	KindUnion
	KindOr
	KindDifference
	KindCount
	KindTopN
	KindDisplay
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindURL:
		return "url"
	case KindURN:
		return "urn"
	case KindSelect:
		return "select"
	case KindProject:
		return "project"
	case KindJoin:
		return "join"
	case KindUnion:
		return "union"
	case KindOr:
		return "or"
	case KindDifference:
		return "difference"
	case KindCount:
		return "count"
	case KindTopN:
		return "topn"
	case KindDisplay:
		return "display"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is one operator in a mutant query plan. Fields are used according to
// Kind; unused fields are zero. Nodes form trees (the paper permits DAGs; we
// copy shared subtrees on construction, which preserves semantics).
type Node struct {
	Kind Kind

	// Data leaves: verbatim XML items.
	Docs []*xmltree.Node

	// URL leaves: a resource location plus the provider's collection
	// identifier (an XPath expression per §3.2, e.g. /data[id=245]).
	URL     string
	PathExp string

	// URN leaves: an abstract resource name (§2), either an opaque named
	// collection (urn:ForSale:Portland-CDs) or an interest-area URN.
	URN string

	// Select: the predicate in prepared form, the one that evaluates.
	Pred *Prepared

	// Project: paths of the fields to keep, and the name of the emitted
	// element wrapping them.
	Fields []string
	As     string

	// Join: item paths for the equi-join keys, and the element names given
	// to the left and right components of each joined tuple.
	LeftKey, RightKey   string
	LeftName, RightName string

	// TopN.
	N       int
	OrderBy string
	Desc    bool

	// Annotations: free-form key/value facts attached by servers as the
	// plan travels (§5.1): cardinalities, histograms, staleness bounds.
	Annotations map[string]string

	Children []*Node
}

// --- Constructors -----------------------------------------------------

// Data creates a verbatim-XML leaf holding the given items.
func Data(docs ...*xmltree.Node) *Node {
	return &Node{Kind: KindData, Docs: docs}
}

// URL creates a resource-location leaf. pathExp may be empty when the URL
// denotes a whole collection.
func URL(url, pathExp string) *Node {
	return &Node{Kind: KindURL, URL: url, PathExp: pathExp}
}

// URN creates an abstract-resource-name leaf.
func URN(urn string) *Node {
	return &Node{Kind: KindURN, URN: urn}
}

// Select creates a selection over its single input. The node holds pred in
// prepared form, so every later fingerprint, comparison, evaluation and
// encoding of the plan reads it instead of re-deriving it.
func Select(pred Predicate, in *Node) *Node {
	n := &Node{Kind: KindSelect, Children: []*Node{in}}
	if pred != nil {
		n.Pred = Prepare(pred)
	}
	return n
}

// Project creates a projection keeping the given field paths; each output
// item is wrapped in an element named as (default "item").
func Project(as string, fields []string, in *Node) *Node {
	if as == "" {
		as = "item"
	}
	return &Node{Kind: KindProject, As: as, Fields: fields, Children: []*Node{in}}
}

// Join creates an equi-join of two inputs on leftKey = rightKey. Joined
// tuples are elements with two children named leftName and rightName
// (defaults "l" and "r") holding the source items.
func Join(leftKey, rightKey string, left, right *Node) *Node {
	return &Node{
		Kind: KindJoin, LeftKey: leftKey, RightKey: rightKey,
		LeftName: "l", RightName: "r",
		Children: []*Node{left, right},
	}
}

// JoinNamed is Join with explicit names for the tuple components.
func JoinNamed(leftKey, rightKey, leftName, rightName string, left, right *Node) *Node {
	n := Join(leftKey, rightKey, left, right)
	n.LeftName, n.RightName = leftName, rightName
	return n
}

// Union creates a bag union of its inputs.
func Union(in ...*Node) *Node {
	return &Node{Kind: KindUnion, Children: in}
}

// Or creates the conjoint-union operator of §4.2: each child alternative
// holds the necessary data, so a server may rewrite A | B to either A or B.
func Or(alternatives ...*Node) *Node {
	return &Node{Kind: KindOr, Children: alternatives}
}

// Difference creates the set difference left − right (by canonical XML
// equality).
func Difference(left, right *Node) *Node {
	return &Node{Kind: KindDifference, Children: []*Node{left, right}}
}

// Count creates an aggregate producing a single <count>n</count> item.
func Count(in *Node) *Node {
	return &Node{Kind: KindCount, Children: []*Node{in}}
}

// TopN keeps the first n items ordered by the value at orderBy.
func TopN(n int, orderBy string, desc bool, in *Node) *Node {
	return &Node{Kind: KindTopN, N: n, OrderBy: orderBy, Desc: desc, Children: []*Node{in}}
}

// Display creates the plan root pseudo-operator; the plan's result is sent
// to the owning Plan's target address (§2).
func Display(in *Node) *Node {
	return &Node{Kind: KindDisplay, Children: []*Node{in}}
}

// --- Utilities ---------------------------------------------------------

// Annotate attaches a key/value annotation and returns the node.
func (n *Node) Annotate(key, value string) *Node {
	if n.Annotations == nil {
		n.Annotations = map[string]string{}
	}
	n.Annotations[key] = value
	return n
}

// Annotation returns the value for key and whether it is present.
func (n *Node) Annotation(key string) (string, bool) {
	v, ok := n.Annotations[key]
	return v, ok
}

// Clone returns a deep copy of the operator subtree. Data payloads are
// copy-on-write: frozen documents (anything that arrived off the wire or
// out of a peer's catalog) are aliased rather than deep-copied — they are
// immutable, so the copy is indistinguishable — while mutable documents are
// still cloned.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	cp := *n
	if n.Docs != nil {
		cp.Docs = make([]*xmltree.Node, len(n.Docs))
		for i, d := range n.Docs {
			cp.Docs[i] = d.Share()
		}
	}
	if n.Fields != nil {
		cp.Fields = append([]string(nil), n.Fields...)
	}
	if n.Annotations != nil {
		cp.Annotations = make(map[string]string, len(n.Annotations))
		for k, v := range n.Annotations {
			cp.Annotations[k] = v
		}
	}
	if n.Children != nil {
		cp.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return &cp
}

// Walk visits the subtree pre-order; returning false from fn prunes the
// descent below that node.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Leaves returns all leaf nodes (data, url, urn) of the subtree in document
// order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		switch m.Kind {
		case KindData, KindURL, KindURN:
			out = append(out, m)
		}
		return true
	})
	return out
}

// URNs returns the distinct URN strings appearing in the subtree, sorted.
func (n *Node) URNs() []string {
	seen := map[string]bool{}
	n.Walk(func(m *Node) bool {
		if m.Kind == KindURN {
			seen[m.URN] = true
		}
		return true
	})
	out := make([]string, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// URLs returns the distinct URL strings appearing in the subtree, sorted.
func (n *Node) URLs() []string {
	seen := map[string]bool{}
	n.Walk(func(m *Node) bool {
		if m.Kind == KindURL {
			seen[m.URL] = true
		}
		return true
	})
	out := make([]string, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// IsConstant reports whether the subtree is fully evaluated, i.e. consists
// of a single Data leaf (possibly under Display). A fully-evaluated MQP "has
// been reduced to a constant piece of XML-encoded data" (§2).
func (n *Node) IsConstant() bool {
	if n.Kind == KindDisplay && len(n.Children) == 1 {
		return n.Children[0].IsConstant()
	}
	return n.Kind == KindData
}

// Validate checks structural well-formedness of the subtree, each node before
// its children.
func (n *Node) Validate() error {
	err := n.validateNode()
	for i := 0; err == nil && i < len(n.Children); i++ {
		err = n.Children[i].Validate()
	}
	return err
}

// validateNode checks n alone: its own fields and how many children it has,
// not what is below them. Unmarshal runs it once per node it builds, so a
// plan of n nodes costs O(n) to check however deep it is.
func (n *Node) validateNode() error {
	if n == nil {
		return fmt.Errorf("algebra: nil node")
	}
	want := -1 // -1 means any number
	switch n.Kind {
	case KindData:
		want = 0
	case KindURL:
		if n.URL == "" {
			return fmt.Errorf("algebra: url node without location")
		}
		want = 0
	case KindURN:
		if n.URN == "" {
			return fmt.Errorf("algebra: urn node without name")
		}
		want = 0
	case KindSelect:
		if n.Pred == nil {
			return fmt.Errorf("algebra: select without predicate")
		}
		want = 1
	case KindProject:
		if len(n.Fields) == 0 {
			return fmt.Errorf("algebra: project without fields")
		}
		// The engine writes these names as element names; anything else
		// would emit markup the next hop parses as a different tree.
		if !xmltree.ElementNameOK(n.As) {
			return fmt.Errorf("algebra: project as=%q is not an element name", n.As)
		}
		want = 1
	case KindJoin:
		if n.LeftKey == "" || n.RightKey == "" {
			return fmt.Errorf("algebra: join without keys")
		}
		if !xmltree.ElementNameOK(n.LeftName) || !xmltree.ElementNameOK(n.RightName) {
			return fmt.Errorf("algebra: join names %q and %q must both be element names", n.LeftName, n.RightName)
		}
		want = 2
	case KindDifference:
		want = 2
	case KindUnion, KindOr:
		if len(n.Children) == 0 {
			return fmt.Errorf("algebra: %s with no children", n.Kind)
		}
	case KindCount:
		want = 1
	case KindTopN:
		if n.N <= 0 {
			return fmt.Errorf("algebra: topn with n=%d", n.N)
		}
		want = 1
	case KindDisplay:
		want = 1
	default:
		return fmt.Errorf("algebra: unknown kind %d", int(n.Kind))
	}
	if want >= 0 && len(n.Children) != want {
		return fmt.Errorf("algebra: %s expects %d children, has %d", n.Kind, want, len(n.Children))
	}
	return nil
}

// String renders a compact single-line sketch of the subtree for logs and
// test failure messages.
func (n *Node) String() string {
	var b strings.Builder
	n.sketch(&b)
	return b.String()
}

func (n *Node) sketch(b *strings.Builder) {
	switch n.Kind {
	case KindData:
		fmt.Fprintf(b, "data(%d)", len(n.Docs))
	case KindURL:
		b.WriteString("url(" + n.URL + n.PathExp + ")")
	case KindURN:
		b.WriteString("urn(" + n.URN + ")")
	case KindSelect:
		b.WriteString("select[" + n.Pred.String() + "](")
		n.Children[0].sketch(b)
		b.WriteString(")")
	case KindProject:
		b.WriteString("project[" + strings.Join(n.Fields, ",") + "](")
		n.Children[0].sketch(b)
		b.WriteString(")")
	case KindJoin:
		fmt.Fprintf(b, "join[%s=%s](", n.LeftKey, n.RightKey)
		n.Children[0].sketch(b)
		b.WriteString(", ")
		n.Children[1].sketch(b)
		b.WriteString(")")
	case KindCount:
		b.WriteString("count(")
		n.Children[0].sketch(b)
		b.WriteString(")")
	case KindTopN:
		fmt.Fprintf(b, "topn[%d by %s](", n.N, n.OrderBy)
		n.Children[0].sketch(b)
		b.WriteString(")")
	case KindDisplay:
		b.WriteString("display(")
		n.Children[0].sketch(b)
		b.WriteString(")")
	default:
		b.WriteString(n.Kind.String() + "(")
		for i, c := range n.Children {
			if i > 0 {
				b.WriteString(", ")
			}
			c.sketch(b)
		}
		b.WriteString(")")
	}
}

// Plan is a complete mutant query plan: the operator tree plus the target
// address the fully-evaluated result must be sent to, an identifier, an
// optional retained copy of the original query (§5.1), and opaque extra
// sections (e.g. provenance) that travel with the plan.
type Plan struct {
	ID       string
	Target   string
	Root     *Node
	Original *Node
	// Visited is the plan's visited-server memory (routing state carried on
	// the plan itself — see visited.go); nil until a router marks a visit.
	Visited *Visited
	// Extra sections are preserved verbatim through serialization; the mqp
	// package stores provenance here. Keys are element names.
	Extra map[string]*xmltree.Node
	// src is the <plan> operator element UnmarshalEnvelope kept. It stands
	// for the operator tree while Root is nil; Open builds Root from it.
	src *xmltree.Node
}

// NewPlan creates a plan with the given id, target and root operator.
func NewPlan(id, target string, root *Node) *Plan {
	return &Plan{ID: id, Target: target, Root: root}
}

// Clone copies the plan. The operator trees are deep-copied (processors
// mutate them in place), but all frozen XML freight — data payloads and
// extra sections like provenance — is aliased copy-on-write, so cloning an
// in-flight plan costs operator headers, not its documents.
func (p *Plan) Clone() *Plan {
	cp := &Plan{ID: p.ID, Target: p.Target, Root: p.Root.Clone(), Original: p.Original.Clone(),
		Visited: p.Visited.Clone(), src: p.src}
	if p.Extra != nil {
		cp.Extra = make(map[string]*xmltree.Node, len(p.Extra))
		for k, v := range p.Extra {
			cp.Extra[k] = v.Share()
		}
	}
	return cp
}

// RetainOriginal stores a copy of the current root as the plan's original
// query, enabling binding improvement and provenance checks (§5.1). Like
// Clone, the copy is lazy about payloads: frozen documents are aliased, so
// retaining the original of a data-heavy plan is cheap.
func (p *Plan) RetainOriginal() {
	p.Original = p.Root.Clone()
}

// Validate checks the plan and its operator tree.
func (p *Plan) Validate() error {
	if p.Target == "" {
		return fmt.Errorf("algebra: plan %q has no target", p.ID)
	}
	if p.Root == nil {
		return fmt.Errorf("algebra: plan %q has no root", p.ID)
	}
	return p.Root.Validate()
}

// IsConstant reports whether the plan is fully evaluated.
func (p *Plan) IsConstant() bool { return p.Root.IsConstant() }

// Results returns the plan's items when it is fully evaluated.
func (p *Plan) Results() ([]*xmltree.Node, error) {
	root := p.Root
	if root.Kind == KindDisplay && len(root.Children) == 1 {
		root = root.Children[0]
	}
	if root.Kind != KindData {
		return nil, fmt.Errorf("algebra: plan %q is not fully evaluated", p.ID)
	}
	return root.Docs, nil
}
