package algebra

import (
	"fmt"
	"strconv"
	"strings"
)

// Well-known annotation keys (§5.1, §4.3). Annotations accumulate on plan
// nodes as the MQP travels: statistics a server chose to publish instead of
// evaluating, and staleness bounds on Or alternatives.
const (
	// AnnotCard is an estimated or exact cardinality for the subtree.
	AnnotCard = "card"
	// AnnotDistinct is the distinct-value count of a named key column,
	// encoded "path:count".
	AnnotDistinct = "distinct"
	// AnnotHistogram is an equi-width histogram, encoded by internal/stats.
	AnnotHistogram = "histogram"
	// AnnotStaleness is the maximum staleness, in minutes, of the data an
	// alternative yields (the {30} delay factor of §4.3).
	AnnotStaleness = "staleness"
	// AnnotSource records which server contributed a bound or reduced
	// subtree; provenance uses it for spoof checks.
	AnnotSource = "source"
)

// Card returns the node's cardinality annotation, or -1 when absent or
// malformed.
func (n *Node) Card() int {
	v, ok := n.Annotation(AnnotCard)
	if !ok {
		return -1
	}
	c, err := strconv.Atoi(v)
	if err != nil {
		return -1
	}
	return c
}

// SetCard annotates the node with a cardinality.
func (n *Node) SetCard(c int) *Node {
	return n.Annotate(AnnotCard, strconv.Itoa(c))
}

// Staleness returns the node's staleness bound in minutes (0 = current),
// or -1 when no bound is recorded.
func (n *Node) Staleness() int {
	v, ok := n.Annotation(AnnotStaleness)
	if !ok {
		return -1
	}
	s, err := strconv.Atoi(v)
	if err != nil {
		return -1
	}
	return s
}

// SetStaleness annotates an alternative with its delay factor in minutes.
func (n *Node) SetStaleness(minutes int) *Node {
	return n.Annotate(AnnotStaleness, strconv.Itoa(minutes))
}

// PushSelectThroughUnion rewrites select(p, union(c1..cn)) into
// union(select(p,c1)..select(p,cn)) everywhere in the tree — the rewrite a
// server applies in paper Fig. 4(a) before routing per-seller sub-plans. It
// also pushes selections through Or the same way (each alternative must
// independently satisfy the query). Returns the number of rewrites applied.
func PushSelectThroughUnion(n *Node) int {
	count := 0
	var visit func(m *Node)
	visit = func(m *Node) {
		for i, c := range m.Children {
			if c.Kind == KindSelect && len(c.Children) == 1 &&
				(c.Children[0].Kind == KindUnion || c.Children[0].Kind == KindOr) {
				u := c.Children[0]
				newKids := make([]*Node, len(u.Children))
				for j, uc := range u.Children {
					sel := Select(c.Pred, uc)
					newKids[j] = sel
				}
				repl := &Node{Kind: u.Kind, Children: newKids, Annotations: u.Annotations}
				m.Children[i] = repl
				count++
			}
		}
		for _, c := range m.Children {
			visit(c)
		}
	}
	// Handle a select at the root of the subtree by wrapping.
	wrapper := &Node{Children: []*Node{n}}
	visit(wrapper)
	return count
}

// FlattenUnions collapses nested unions (union(union(a,b),c) → union(a,b,c))
// and nested ors similarly, in place. Returns the number of flattenings.
func FlattenUnions(n *Node) int {
	count := 0
	var visit func(m *Node)
	visit = func(m *Node) {
		if m.Kind == KindUnion || m.Kind == KindOr {
			var flat []*Node
			changed := false
			for _, c := range m.Children {
				if c.Kind == m.Kind {
					flat = append(flat, c.Children...)
					changed = true
				} else {
					flat = append(flat, c)
				}
			}
			if changed {
				m.Children = flat
				count++
				visit(m) // may enable further flattening
				return
			}
		}
		for _, c := range m.Children {
			visit(c)
		}
	}
	visit(n)
	return count
}

// OrChoice selects one alternative of every Or node using pick, applying the
// paper's rewrite rules A | B → A and A | B → B. pick receives the
// alternatives and returns the index to keep; an out-of-range return keeps
// the Or unchanged. Returns the number of Or nodes resolved.
func OrChoice(n *Node, pick func(alts []*Node) int) int {
	count := 0
	var visit func(m *Node)
	visit = func(m *Node) {
		for i, c := range m.Children {
			if c.Kind == KindOr {
				idx := pick(c.Children)
				if idx >= 0 && idx < len(c.Children) {
					m.Children[i] = c.Children[idx]
					count++
				}
			}
		}
		for _, c := range m.Children {
			visit(c)
		}
	}
	wrapper := &Node{Children: []*Node{n}}
	visit(wrapper)
	return count
}

// PickFewestSites is an OrChoice policy preferring the alternative touching
// the fewest distinct servers (URLs + URNs); ties break toward the first.
func PickFewestSites(alts []*Node) int {
	best, bestSites := -1, int(^uint(0)>>1)
	for i, a := range alts {
		sites := len(a.URLs()) + len(a.URNs())
		if sites < bestSites {
			best, bestSites = i, sites
		}
	}
	return best
}

// PickMostCurrent is an OrChoice policy preferring the alternative with the
// smallest staleness bound (missing bounds are treated as current, per the
// paper's default of exact replication). Ties break toward fewer sites.
func PickMostCurrent(alts []*Node) int {
	best, bestStale, bestSites := -1, int(^uint(0)>>1), int(^uint(0)>>1)
	for i, a := range alts {
		st := a.Staleness()
		if st < 0 {
			st = 0
		}
		sites := len(a.URLs()) + len(a.URNs())
		if st < bestStale || (st == bestStale && sites < bestSites) {
			best, bestStale, bestSites = i, st, sites
		}
	}
	return best
}

// DistributeDifference applies the §4.2 Example 3 transformation
//
//	E − (R ∪ S)  →  (E − S) − R
//
// so that the subtraction against a locally-available S can be evaluated
// first, shrinking the partial result before it travels on. isLocal decides
// which union branches to subtract first. The rewrite applies to every
// Difference node whose right child is a Union; it is always sound under
// set semantics. Returns the number of rewrites.
func DistributeDifference(n *Node, isLocal func(*Node) bool) int {
	count := 0
	var visit func(m *Node)
	visit = func(m *Node) {
		for i, c := range m.Children {
			if c.Kind == KindDifference && len(c.Children) == 2 && c.Children[1].Kind == KindUnion {
				u := c.Children[1]
				var local, remote []*Node
				for _, branch := range u.Children {
					if isLocal(branch) {
						local = append(local, branch)
					} else {
						remote = append(remote, branch)
					}
				}
				if len(local) == 0 || len(remote) == 0 {
					continue
				}
				cur := c.Children[0]
				for _, b := range local {
					cur = Difference(cur, b)
				}
				var rest *Node
				if len(remote) == 1 {
					rest = remote[0]
				} else {
					rest = Union(remote...)
				}
				m.Children[i] = Difference(cur, rest)
				count++
			}
		}
		for _, c := range m.Children {
			visit(c)
		}
	}
	wrapper := &Node{Children: []*Node{n}}
	visit(wrapper)
	return count
}

// AbsorbJoin applies the paper's absorption rewrite
//
//	(A ⋈ X) ⋈ B  →  (A ⋈ B) ⋈ X
//
// to the canonical plan shape where the inner join's left component (A) and
// the outer right input (B) are both locally available while X is not, and
// the outer join key addresses the A component of the inner tuples (a path
// of the form "<leftname>/k"). When |A ⋈ B| ≪ |A| this lets a server reduce
// the local pair first and ship a much smaller partial result (§2).
//
// The returned tree names the new inner tuple components after the original
// A component and "b"; the outer join rebinds X with the original inner
// key prefixed by the A component name. Output tuples therefore nest
// differently from the original plan ((a,b),x vs (a,x),b) but contain the
// same item combinations; follow with a Project to normalize shape if
// required. Returns nil when the shape does not match.
func AbsorbJoin(outer *Node) (*Node, error) {
	if outer.Kind != KindJoin || len(outer.Children) != 2 {
		return nil, fmt.Errorf("algebra: absorb: outer is not a binary join")
	}
	inner, b := outer.Children[0], outer.Children[1]
	if inner.Kind != KindJoin || len(inner.Children) != 2 {
		return nil, fmt.Errorf("algebra: absorb: left input is not a join")
	}
	prefix := inner.LeftName + "/"
	if !strings.HasPrefix(outer.LeftKey, prefix) {
		return nil, fmt.Errorf("algebra: absorb: outer key %q does not address the %q component", outer.LeftKey, inner.LeftName)
	}
	aKey := strings.TrimPrefix(outer.LeftKey, prefix)
	a, x := inner.Children[0], inner.Children[1]

	newInner := JoinNamed(aKey, outer.RightKey, inner.LeftName, outer.RightName, a.Clone(), b.Clone())
	newOuter := JoinNamed(prefix+inner.LeftKey, inner.RightKey, "ab", inner.RightName, newInner, x.Clone())
	return newOuter, nil
}

// EstimateCard returns a coarse cardinality estimate for a subtree using
// available annotations and data leaves; unknown inputs yield -1. The MQP
// optimizer uses it to order candidate sub-plans and the policy manager to
// decline oversized evaluations (§5.1).
func EstimateCard(n *Node) int {
	if c := n.Card(); c >= 0 {
		return c
	}
	switch n.Kind {
	case KindData:
		return len(n.Docs)
	case KindURL, KindURN:
		return -1
	case KindSelect:
		c := EstimateCard(n.Children[0])
		if c < 0 {
			return -1
		}
		// Default selectivity 1/3, per classic System R style guesses.
		return (c + 2) / 3
	case KindProject, KindTopN:
		c := EstimateCard(n.Children[0])
		if n.Kind == KindTopN && c >= 0 && c > n.N {
			return n.N
		}
		return c
	case KindCount:
		return 1
	case KindUnion, KindOr:
		total := 0
		for _, c := range n.Children {
			cc := EstimateCard(c)
			if cc < 0 {
				return -1
			}
			if n.Kind == KindOr {
				// Alternatives hold the same data; size is any branch's.
				return cc
			}
			total += cc
		}
		return total
	case KindJoin:
		l, r := EstimateCard(n.Children[0]), EstimateCard(n.Children[1])
		if l < 0 || r < 0 {
			return -1
		}
		// Assume keys: output bounded by the larger input.
		if l > r {
			return l
		}
		return r
	case KindDifference:
		return EstimateCard(n.Children[0])
	case KindDisplay:
		return EstimateCard(n.Children[0])
	}
	return -1
}
