package algebra

import (
	"slices"
	"strings"

	"repro/internal/xmltree"
)

// Path is an item path parsed once instead of once per item: join keys and
// prepared predicates both walk it. Plain child-step paths ("title",
// "listing/song") are walked without allocating; any other form (predicates,
// "*", attribute access, malformed) keeps steps nil and goes through Find,
// which owns the path language.
type Path struct {
	expr  string
	steps []string
}

// ParsePath classifies an item path expression.
func ParsePath(expr string) Path {
	p := Path{expr: expr}
	plain := strings.TrimPrefix(expr, "/")
	if plain == "" || strings.ContainsAny(plain, "[@*") {
		return p
	}
	if steps := strings.Split(plain, "/"); !slices.Contains(steps, "") {
		p.steps = steps
	}
	return p
}

// First returns what it.Find(expr) returns: the first match in document
// order, or nil.
func (p Path) First(it *xmltree.Node) *xmltree.Node {
	if p.steps == nil {
		return it.Find(p.expr)
	}
	return firstMatch(it, p.steps)
}

// firstMatch backtracks out of a branch whose later steps match nothing, as
// Find's breadth-wise evaluation does.
func firstMatch(n *xmltree.Node, steps []string) *xmltree.Node {
	for _, c := range n.Children {
		if c.Name != steps[0] {
			continue
		}
		if len(steps) == 1 {
			return c
		}
		if m := firstMatch(c, steps[1:]); m != nil {
			return m
		}
	}
	return nil
}
