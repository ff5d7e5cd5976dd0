package xmltree

import (
	"strconv"
	"strings"
)

// Path is an item path compiled once and walked over any number of items.
// The language is the small XPath-like one the paper's catalogs and item
// bundles need:
//
//	item/price          child steps
//	*                   any element child
//	data[id=245]        attribute-equality predicate (paper §3.2 identifiers)
//	item[2]             positional predicate (1-based, counted among the
//	                    children the step's name and predicate match)
//	price/@currency     terminal attribute access (the match is a
//	                    synthesized text node holding the attribute value)
//
// A path is evaluated relative to the item, whose own name it does not
// consume; a leading "/" is permitted and ignored. An empty or malformed
// expression (an empty step, an unclosed or non-positive predicate, a
// predicate without a name) compiles to a path that matches nothing.
type Path struct {
	steps []pathStep
	// plain: every step is a bare element name, walked with one name
	// compare per child.
	plain bool
}

type pathStep struct {
	name      string // element name, or "*", or "@attr" for attribute access
	attrName  string // predicate [name=value]
	attrValue string
	index     int // 1-based positional predicate; 0 means none
}

// ParsePath compiles a path expression.
func ParsePath(expr string) Path {
	steps, ok := parseSteps(expr)
	plain := ok
	for _, st := range steps {
		plain = plain && st.name != "*" && st.name[0] != '@' && st.attrName == "" && st.index == 0
	}
	return Path{steps: steps, plain: plain}
}

func parseSteps(expr string) ([]pathStep, bool) {
	expr = strings.TrimPrefix(expr, "/")
	if expr == "" {
		return nil, false
	}
	steps := make([]pathStep, 0, strings.Count(expr, "/")+1)
	for rest, more := expr, true; more; {
		var p string
		p, rest, more = strings.Cut(rest, "/")
		st := pathStep{name: p}
		if i := strings.IndexByte(p, '['); i >= 0 {
			if !strings.HasSuffix(p, "]") {
				return nil, false
			}
			pred := p[i+1 : len(p)-1]
			st.name = p[:i]
			if eq := strings.IndexByte(pred, '='); eq >= 0 {
				st.attrName = strings.TrimPrefix(strings.TrimSpace(pred[:eq]), "@")
				st.attrValue = strings.Trim(strings.TrimSpace(pred[eq+1:]), `'"`)
			} else if idx, err := strconv.Atoi(pred); err == nil && idx >= 1 {
				st.index = idx
			} else {
				return nil, false
			}
		}
		if st.name == "" {
			return nil, false
		}
		steps = append(steps, st)
	}
	return steps, true
}

// First returns the path's first match under n in document order, or nil.
// A branch whose later steps match nothing is backtracked out of, so the
// match is the one a breadth-wise evaluation of every step lists first.
func (p Path) First(n *Node) *Node {
	switch {
	case p.steps == nil:
		return nil
	case p.plain:
		return firstPlain(n, p.steps)
	}
	return first(n, p.steps)
}

func firstPlain(n *Node, steps []pathStep) *Node {
	name := steps[0].name
	for _, c := range n.Kids() {
		if c.Name != name {
			continue
		}
		if len(steps) == 1 {
			return c
		}
		if m := firstPlain(c, steps[1:]); m != nil {
			return m
		}
	}
	return nil
}

func first(n *Node, steps []pathStep) *Node {
	st := steps[0]
	if attr, ok := strings.CutPrefix(st.name, "@"); ok {
		// An attribute's value is a text node: no step continues past it.
		if v, ok := n.Attr(attr); ok && len(steps) == 1 {
			return TextNode(v)
		}
		return nil
	}
	pos := 0
	for _, c := range n.Kids() {
		if c.IsText() || (st.name != "*" && c.Name != st.name) {
			continue
		}
		if st.attrName != "" {
			if v, ok := c.Attr(st.attrName); !ok || v != st.attrValue {
				continue
			}
		}
		if pos++; st.index > 0 && pos != st.index {
			continue
		}
		if len(steps) == 1 {
			return c
		}
		if m := first(c, steps[1:]); m != nil || st.index > 0 {
			return m
		}
	}
	return nil
}

// Value returns the inner text of the path's first match under n, or ""
// when nothing matches.
func (p Path) Value(n *Node) string {
	if m := p.First(n); m != nil {
		return m.InnerText()
	}
	return ""
}

// Find returns the first node the path expression matches under n (see
// Path), or nil.
func (n *Node) Find(path string) *Node { return ParsePath(path).First(n) }
