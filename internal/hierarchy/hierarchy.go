// Package hierarchy implements categorization hierarchies — the building
// block of the paper's multi-hierarchic namespaces (§3.1).
//
// A category is identified by a slash-separated path from the hierarchy
// root, e.g. "USA/OR/Portland" in a Location hierarchy or
// "Furniture/Chairs" in a Merchandise hierarchy. The special path "*"
// denotes the all-inclusive top category of a dimension. Every item belongs
// to exactly one most-specific category and, implicitly, to all of that
// category's ancestors.
package hierarchy

import (
	"fmt"
	"sort"
	"strings"
)

// Path is a category path within one hierarchy: a slash-separated list of
// segment names, or "*" for the hierarchy's top. The zero value is invalid;
// use Top or ParsePath.
type Path struct {
	segs []string // nil for top ("*")
}

// Top is the all-inclusive top category "*" of any dimension.
var Top = Path{}

// ParsePath parses "USA/OR/Portland" (or "*") into a Path. Empty segments
// are rejected; surrounding whitespace on each segment is trimmed.
func ParsePath(s string) (Path, error) {
	s = strings.TrimSpace(s)
	if s == "*" || s == "" {
		return Top, nil
	}
	parts := strings.Split(s, "/")
	segs := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return Path{}, fmt.Errorf("hierarchy: empty segment in path %q", s)
		}
		if p == "*" {
			return Path{}, fmt.Errorf("hierarchy: %q may appear only as the whole path", "*")
		}
		segs = append(segs, p)
	}
	return Path{segs: segs}, nil
}

// MustParsePath is ParsePath for fixtures and tests; it panics on error.
func MustParsePath(s string) Path {
	p, err := ParsePath(s)
	if err != nil {
		panic(err)
	}
	return p
}

// IsTop reports whether the path is the all-inclusive "*" category.
func (p Path) IsTop() bool { return len(p.segs) == 0 }

// Depth returns the number of segments (0 for top).
func (p Path) Depth() int { return len(p.segs) }

// Segments returns a copy of the path's segments.
func (p Path) Segments() []string {
	out := make([]string, len(p.segs))
	copy(out, p.segs)
	return out
}

// Leaf returns the final segment name, or "*" for top.
func (p Path) Leaf() string {
	if p.IsTop() {
		return "*"
	}
	return p.segs[len(p.segs)-1]
}

// String renders the path in the paper's notation, e.g. "USA/OR/Portland".
func (p Path) String() string {
	if p.IsTop() {
		return "*"
	}
	return strings.Join(p.segs, "/")
}

// Parent returns the immediate parent category; the parent of a depth-1 path
// is Top, and Top is its own parent.
func (p Path) Parent() Path {
	if len(p.segs) <= 1 {
		return Top
	}
	return Path{segs: p.segs[:len(p.segs)-1]}
}

// Child returns the path extended by one segment.
func (p Path) Child(seg string) Path {
	segs := make([]string, len(p.segs)+1)
	copy(segs, p.segs)
	segs[len(p.segs)] = seg
	return Path{segs: segs}
}

// Equal reports whether two paths name the same category.
func (p Path) Equal(q Path) bool {
	if len(p.segs) != len(q.segs) {
		return false
	}
	for i := range p.segs {
		if p.segs[i] != q.segs[i] {
			return false
		}
	}
	return true
}

// Covers reports whether p is an ancestor of q or the same category: the
// paper's per-dimension cover relation. Top covers everything.
func (p Path) Covers(q Path) bool {
	if len(p.segs) > len(q.segs) {
		return false
	}
	for i := range p.segs {
		if p.segs[i] != q.segs[i] {
			return false
		}
	}
	return true
}

// Overlaps reports whether the two categories share any items, i.e. one
// covers the other (in a hierarchy, distinct sibling subtrees are disjoint).
func (p Path) Overlaps(q Path) bool {
	return p.Covers(q) || q.Covers(p)
}

// Meet returns the more specific of two overlapping paths (their
// intersection as item sets) and reports whether they overlap at all.
func (p Path) Meet(q Path) (Path, bool) {
	switch {
	case p.Covers(q):
		return q, true
	case q.Covers(p):
		return p, true
	default:
		return Path{}, false
	}
}

// Truncate returns the path cut to at most depth segments. The paper (§3.5)
// uses this to approximate an unknown category by an ancestor: precision may
// drop but recall is preserved.
func (p Path) Truncate(depth int) Path {
	if depth < 0 {
		depth = 0
	}
	if depth >= len(p.segs) {
		return p
	}
	return Path{segs: p.segs[:depth]}
}

// Compare orders paths lexicographically by segment; Top sorts first.
func (p Path) Compare(q Path) int {
	n := len(p.segs)
	if len(q.segs) < n {
		n = len(q.segs)
	}
	for i := 0; i < n; i++ {
		if c := strings.Compare(p.segs[i], q.segs[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(p.segs) < len(q.segs):
		return -1
	case len(p.segs) > len(q.segs):
		return 1
	default:
		return 0
	}
}

// Hierarchy is one categorization dimension: a named tree of categories.
// The zero value is not usable; construct with New.
type Hierarchy struct {
	name string
	root *node
}

type node struct {
	name     string
	children map[string]*node
}

// New creates an empty hierarchy with the given dimension name
// (e.g. "Location", "Merchandise", "Organism", "CellType").
func New(name string) *Hierarchy {
	return &Hierarchy{name: name, root: &node{children: map[string]*node{}}}
}

// Name returns the dimension name.
func (h *Hierarchy) Name() string { return h.name }

// AddPath inserts a category path, creating intermediate categories as
// needed, and returns the inserted Path.
func (h *Hierarchy) AddPath(s string) (Path, error) {
	p, err := ParsePath(s)
	if err != nil {
		return Path{}, err
	}
	cur := h.root
	for _, seg := range p.segs {
		next, ok := cur.children[seg]
		if !ok {
			next = &node{name: seg, children: map[string]*node{}}
			cur.children[seg] = next
		}
		cur = next
	}
	return p, nil
}

// MustAdd is AddPath for fixtures; it panics on error.
func (h *Hierarchy) MustAdd(s string) Path {
	p, err := h.AddPath(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Contains reports whether the exact category exists in the hierarchy.
// Top always exists.
func (h *Hierarchy) Contains(p Path) bool {
	return h.lookup(p) != nil
}

func (h *Hierarchy) lookup(p Path) *node {
	cur := h.root
	for _, seg := range p.segs {
		next, ok := cur.children[seg]
		if !ok {
			return nil
		}
		cur = next
	}
	return cur
}

// Children answers the paper's category-server query "what are the immediate
// subcategories of X?". Results are sorted for determinism. Unknown paths
// yield an error.
func (h *Hierarchy) Children(p Path) ([]Path, error) {
	n := h.lookup(p)
	if n == nil {
		return nil, fmt.Errorf("hierarchy %s: unknown category %q", h.name, p)
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Path, len(names))
	for i, name := range names {
		out[i] = p.Child(name)
	}
	return out, nil
}

// KnownDepth returns the depth of the deepest known ancestor of p — the
// truncation point Generalize uses, exposed so callers absorbing learned
// routing state can tell how much precision a generalization costs before
// committing it (0 means the hierarchy knows nothing along p).
func (h *Hierarchy) KnownDepth(p Path) int {
	cur := h.root
	known := 0
	for _, seg := range p.segs {
		next, ok := cur.children[seg]
		if !ok {
			break
		}
		cur = next
		known++
	}
	return known
}

// Generalize maps a possibly-unknown path to its deepest known ancestor
// (§3.5: "rewrite USA/OR/Portland into USA/OR, with a possible loss of
// precision, but no loss of recall").
func (h *Hierarchy) Generalize(p Path) Path {
	return p.Truncate(h.KnownDepth(p))
}

// Leaves returns every leaf category in the hierarchy, sorted; workload
// generators draw most-specific categories from this set.
func (h *Hierarchy) Leaves() []Path {
	var out []Path
	var walk func(n *node, p Path)
	walk = func(n *node, p Path) {
		if len(n.children) == 0 {
			if !p.IsTop() {
				out = append(out, p)
			}
			return
		}
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			walk(n.children[name], p.Child(name))
		}
	}
	walk(h.root, Top)
	return out
}

// All returns every category in the hierarchy (excluding Top), sorted.
func (h *Hierarchy) All() []Path {
	var out []Path
	var walk func(n *node, p Path)
	walk = func(n *node, p Path) {
		if !p.IsTop() {
			out = append(out, p)
		}
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			walk(n.children[name], p.Child(name))
		}
	}
	walk(h.root, Top)
	return out
}
