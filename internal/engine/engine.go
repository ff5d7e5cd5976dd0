// Package engine evaluates algebra sub-plans whose leaves are verbatim XML
// data. It plays the role NIAGARA played in the paper's prototype (§2): the
// local XML query engine a peer's policy manager hands locally-evaluable
// sub-plans to.
//
// Item model: every collection is a slice of *xmltree.Node items. A join
// emits <tuple> items whose children are one element per join component
// (named by the join's LeftName/RightName), each holding the fields of the
// source item. Key and predicate paths address items relative to their root
// element, so "listing/song" reaches into the "listing" component of a
// joined tuple.
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/algebra"
	"repro/internal/xmltree"
)

// ErrBudget is returned for a join whose output would exceed the step budget
// (maxJoinTuples). Nothing is built for its tuples: the join is refused once
// its size is known, before its output is allocated.
var ErrBudget = errors.New("engine: join output exceeds the step budget")

// maxJoinTuples is the step budget: the most tuples one join may emit. A hash
// join has no bound of its own, so a skewed key gives |L|×|R| tuples — two
// inline lists of 1000 items sharing one key are a 15 KB frame and a million
// tuples (160 MB). The largest join the experiments, the chaos worlds and the
// benchmark workloads run is 456 tuples.
const maxJoinTuples = 1 << 16

// Evaluate computes the result collection of a locally-evaluable sub-plan.
// It returns an error if the subtree contains URL or URN leaves (those must
// be resolved by the MQP processor first) or is otherwise malformed.
func Evaluate(n *algebra.Node) ([]*xmltree.Node, error) {
	switch n.Kind {
	case algebra.KindData:
		return n.Docs, nil
	case algebra.KindURL:
		return nil, fmt.Errorf("engine: unresolved URL leaf %q", n.URL)
	case algebra.KindURN:
		return nil, fmt.Errorf("engine: unresolved URN leaf %q", n.URN)
	case algebra.KindSelect:
		return evalSelect(n)
	case algebra.KindProject:
		return evalProject(n)
	case algebra.KindJoin:
		return evalJoin(n, newTuple)
	case algebra.KindUnion:
		return evalUnion(n)
	case algebra.KindOr:
		// All alternatives hold the necessary data (§4.2); evaluate the
		// first. Routing policies should already have chosen an alternative.
		if len(n.Children) == 0 {
			return nil, fmt.Errorf("engine: empty or")
		}
		return Evaluate(n.Children[0])
	case algebra.KindDifference:
		return evalDifference(n)
	case algebra.KindCount:
		return evalCount(n)
	case algebra.KindTopN:
		return evalTopN(n)
	case algebra.KindDisplay:
		if len(n.Children) != 1 {
			return nil, fmt.Errorf("engine: display expects one child")
		}
		return Evaluate(n.Children[0])
	default:
		return nil, fmt.Errorf("engine: cannot evaluate %s", n.Kind)
	}
}

// LocallyEvaluable reports whether a sub-plan can be evaluated with no
// further resolution: all its leaves are verbatim data (§2: "a sub-plan is
// locally evaluable if all its leaves are verbatim XML data, URLs, or
// resolvable URNs" — URL/URN resolvability is the MQP processor's job; by
// the time the engine sees a sub-plan, data is the only admissible leaf).
func LocallyEvaluable(n *algebra.Node) bool {
	ok := true
	n.Walk(func(m *algebra.Node) bool {
		switch m.Kind {
		case algebra.KindURL, algebra.KindURN:
			ok = false
			return false
		}
		return true
	})
	return ok
}

// Reduce evaluates a locally-evaluable sub-plan and returns a Data node
// holding the materialized result, annotated with its exact cardinality —
// the paper's reduction step ("substituting the results in place of the
// sub-plan"). Result items are frozen: they replace the sub-plan inside an
// in-flight plan, so every later hop serializes and forwards them by
// aliasing instead of cloning. Items passed through unchanged (selection,
// top-n) typically arrived frozen already, making this a no-op for them.
// Each new item (a join tuple, a projection) is frozen on its own, so it
// gets its own serialization memo: the one serialization it ever has, which
// the frame encoder copies and blobstore.Fingerprint hashes.
//
// When the sub-plan is a join, nothing in this evaluation reads its tuples,
// so each is written straight into that memo (xmltree.SealedPair): born
// frozen and sealed, built into a tree only if a later reader asks Kids.
// A join that another operator reads (a nested join's input, a selection
// over a join) still builds its tuples as trees: building sealed bytes back
// into a tree costs a decoder run.
//
// Because pass-through items are aliases of the input's Docs, Reduce
// freezes those input documents in place — a sub-plan handed to Reduce is
// consumed. On the hop path inputs always arrive frozen (wire decode,
// catalog materialization); code evaluating an ad-hoc tree whose documents
// it wants to keep mutating should use Evaluate, which freezes nothing.
func Reduce(n *algebra.Node) (*algebra.Node, error) {
	var items []*xmltree.Node
	var err error
	if n.Kind == algebra.KindJoin {
		items, err = evalJoin(n, sealedTuple)
	} else {
		items, err = Evaluate(n)
	}
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		it.Freeze()
	}
	out := algebra.Data(items...)
	out.SetCard(len(items))
	return out, nil
}

func evalSelect(n *algebra.Node) ([]*xmltree.Node, error) {
	in, err := Evaluate(n.Children[0])
	if err != nil {
		return nil, err
	}
	var out []*xmltree.Node
	for _, it := range in {
		if n.Pred.Eval(it) {
			out = append(out, it)
		}
	}
	return out, nil
}

func evalProject(n *algebra.Node) ([]*xmltree.Node, error) {
	in, err := Evaluate(n.Children[0])
	if err != nil {
		return nil, err
	}
	out := make([]*xmltree.Node, 0, len(in))
	for _, it := range in {
		e := xmltree.Elem(n.As)
		for _, f := range n.Fields {
			if m := it.Find(f); m != nil {
				if m.IsText() {
					// Attribute access synthesizes text nodes; wrap them so
					// the projected field keeps a name.
					name := f[strings.LastIndexByte(f, '/')+1:]
					name = strings.TrimPrefix(name, "@")
					e.Add(xmltree.ElemText(name, m.Text))
				} else {
					// Fields of frozen source items are aliased into the
					// projection; only mutable inputs pay for a copy.
					e.Add(m.Share())
				}
			}
		}
		out = append(out, e)
	}
	return out, nil
}

// keyOf extracts a join key: the trimmed inner text of the first match.
// Items with no match carry no key and never join (SQL NULL-like).
func keyOf(it *xmltree.Node, key xmltree.Path) (string, bool) {
	m := key.First(it)
	if m == nil {
		return "", false
	}
	return strings.TrimSpace(m.InnerText()), true
}

// joinTuple is one join output in one allocation: the <tuple> element, its
// two components and the tuple's child array. A retained tuple keeps only
// this block and the fields it aliases; nothing is shared with other tuples.
type joinTuple struct {
	tuple, left, right xmltree.Node
	kids               [2]*xmltree.Node
}

func newTuple(leftName string, l *xmltree.Node, rightName string, r *xmltree.Node) *xmltree.Node {
	t := &joinTuple{}
	component(&t.left, leftName, l)
	component(&t.right, rightName, r)
	t.kids = [2]*xmltree.Node{&t.left, &t.right}
	t.tuple = xmltree.Node{Name: "tuple", Children: t.kids[:]}
	return &t.tuple
}

// component makes c an element named name holding an item's content —
// leading text and fields. The name is an element name (algebra.Validate
// holds plans to it), so the tuple stays in normal form. A frozen item's
// child list is aliased, capped at its length: the list may share a backing
// array with other nodes or have spare room (a tree grown by Add), and an
// Add on the component must copy rather than write into slots that are not
// its own — every tuple the item joins into aliases the same list. A mutable
// item's fields are Shared.
func component(c *xmltree.Node, name string, it *xmltree.Node) {
	c.Name, c.Text = name, it.Text
	kids := it.Kids()
	if it.Frozen() {
		c.Children = kids[:len(kids):len(kids)]
		return
	}
	c.Children = make([]*xmltree.Node, len(kids))
	for i, f := range kids {
		c.Children[i] = f.Share()
	}
}

// sealedTuple is a join tuple as its serialization: the same bytes as
// newTuple's tree, in one frozen, sealed node that aliases no input. The
// component names are element names (algebra.Validate holds plans to them),
// so Kids can build the tuple from its bytes.
func sealedTuple(leftName string, l *xmltree.Node, rightName string, r *xmltree.Node) *xmltree.Node {
	return xmltree.SealedPair("tuple", leftName, l, rightName, r)
}

// evalJoin joins its two inputs, making each output with tuple (newTuple or
// sealedTuple).
func evalJoin(n *algebra.Node, tuple func(string, *xmltree.Node, string, *xmltree.Node) *xmltree.Node) ([]*xmltree.Node, error) {
	left, err := Evaluate(n.Children[0])
	if err != nil {
		return nil, err
	}
	right, err := Evaluate(n.Children[1])
	if err != nil {
		return nil, err
	}
	// Classic hash join: build on the smaller side.
	build, probe := left, right
	buildKey, probeKey := xmltree.ParsePath(n.LeftKey), xmltree.ParsePath(n.RightKey)
	swapped := false
	if len(right) < len(left) {
		build, probe = right, left
		buildKey, probeKey = probeKey, buildKey
		swapped = true
	}
	// chains maps a key to its first build item and the number of build
	// items with it; next chains the rest in build order (built back to
	// front), so there is no slice per distinct key.
	type chain struct{ first, count int32 }
	chains := make(map[string]chain, len(build))
	next := make([]int32, len(build))
	for i := len(build) - 1; i >= 0; i-- {
		k, ok := keyOf(build[i], buildKey)
		if !ok {
			continue
		}
		c, ok := chains[k]
		if !ok {
			c.first = -1
		}
		next[i] = c.first
		chains[k] = chain{first: int32(i), count: c.count + 1}
	}
	// A first pass over the probe side finds each item's chain and sums
	// the tuple count, so the output is allocated once at its exact size.
	heads := make([]int32, len(probe))
	total := 0
	for j, p := range probe {
		heads[j] = -1
		if k, ok := keyOf(p, probeKey); ok {
			if c, ok := chains[k]; ok {
				heads[j] = c.first
				total += int(c.count)
			}
		}
	}
	if total == 0 {
		return nil, nil
	}
	if total > maxJoinTuples {
		return nil, fmt.Errorf("%w: %d tuples", ErrBudget, total)
	}
	out := make([]*xmltree.Node, 0, total)
	for j, p := range probe {
		for i := heads[j]; i >= 0; i = next[i] {
			// Restore left/right orientation: the build side is the left
			// input unless the inputs were swapped above.
			l, r := build[i], p
			if swapped {
				l, r = p, build[i]
			}
			out = append(out, tuple(n.LeftName, l, n.RightName, r))
		}
	}
	return out, nil
}

func evalUnion(n *algebra.Node) ([]*xmltree.Node, error) {
	var out []*xmltree.Node
	for _, c := range n.Children {
		items, err := Evaluate(c)
		if err != nil {
			return nil, err
		}
		out = append(out, items...)
	}
	return out, nil
}

func evalDifference(n *algebra.Node) ([]*xmltree.Node, error) {
	left, err := Evaluate(n.Children[0])
	if err != nil {
		return nil, err
	}
	right, err := Evaluate(n.Children[1])
	if err != nil {
		return nil, err
	}
	drop := make(map[string]bool, len(right))
	for _, it := range right {
		drop[it.String()] = true
	}
	var out []*xmltree.Node
	for _, it := range left {
		if !drop[it.String()] {
			out = append(out, it)
		}
	}
	return out, nil
}

func evalCount(n *algebra.Node) ([]*xmltree.Node, error) {
	in, err := Evaluate(n.Children[0])
	if err != nil {
		return nil, err
	}
	return []*xmltree.Node{xmltree.ElemText("count", strconv.Itoa(len(in)))}, nil
}

// evalTopN sorts by one total order, so the answer does not depend on the
// order the inputs arrive in: values that read as numbers under
// xmltree.Number first, in numeric order, then every other value (a missing
// field reads as "") in text order. Desc reverses the order; ties keep their
// input order.
func evalTopN(n *algebra.Node) ([]*xmltree.Node, error) {
	in, err := Evaluate(n.Children[0])
	if err != nil {
		return nil, err
	}
	type keyed struct {
		item  *xmltree.Node
		text  string
		num   float64
		isNum bool
	}
	orderBy := xmltree.ParsePath(n.OrderBy)
	keys := make([]keyed, len(in))
	for i, it := range in {
		k := keyed{item: it}
		k.text = strings.TrimSpace(orderBy.Value(it))
		k.num, k.isNum = xmltree.Number(k.text)
		keys[i] = k
	}
	sign := 1
	if n.Desc {
		sign = -1
	}
	slices.SortStableFunc(keys, func(a, b keyed) int {
		switch {
		case a.isNum && b.isNum:
			return sign * cmp.Compare(a.num, b.num)
		case a.isNum:
			return -sign
		case b.isNum:
			return sign
		}
		return sign * strings.Compare(a.text, b.text)
	})
	items := make([]*xmltree.Node, min(len(keys), n.N))
	for i := range items {
		items[i] = keys[i].item
	}
	return items, nil
}
