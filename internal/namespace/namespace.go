// Package namespace implements the paper's multi-hierarchic namespaces
// (§3.1): a fixed, ordered set of categorization dimensions; interest cells
// (one category per dimension); and interest areas (sets of cells), with the
// cover and overlap relations that drive distributed catalog routing.
//
// It also implements the lexical URN encoding of §3.4, e.g.
//
//	urn:InterestArea:(USA.OR.Portland,Furniture)+(USA.WA.Vancouver,Furniture)
//
// where categories use "." instead of "/" inside the URN's namespace-
// specific string and "+" separates cells.
package namespace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/hierarchy"
)

// Namespace is an ordered set of dimensions. All cells and areas within a
// deployment are expressed over the same Namespace; cell coordinates are
// positional.
type Namespace struct {
	dims []*hierarchy.Hierarchy
}

// New creates a namespace over the given dimensions. The order is
// significant: cell coordinates are positional. At least one dimension is
// required.
func New(dims ...*hierarchy.Hierarchy) (*Namespace, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("namespace: at least one dimension required")
	}
	seen := map[string]bool{}
	for _, d := range dims {
		if d == nil {
			return nil, fmt.Errorf("namespace: nil dimension")
		}
		if seen[d.Name()] {
			return nil, fmt.Errorf("namespace: duplicate dimension %q", d.Name())
		}
		seen[d.Name()] = true
	}
	return &Namespace{dims: dims}, nil
}

// MustNew is New for fixtures; it panics on error.
func MustNew(dims ...*hierarchy.Hierarchy) *Namespace {
	ns, err := New(dims...)
	if err != nil {
		panic(err)
	}
	return ns
}

// Dimensions returns the namespace's dimensions in coordinate order.
func (ns *Namespace) Dimensions() []*hierarchy.Hierarchy {
	out := make([]*hierarchy.Hierarchy, len(ns.dims))
	copy(out, ns.dims)
	return out
}

// Everything returns the all-inclusive interest area of the namespace: one
// cell with every coordinate at Top.
func (ns *Namespace) Everything() Area {
	coords := make([]hierarchy.Path, len(ns.dims))
	return NewArea(Cell{Coords: coords})
}

// Cell is an interest cell: the cross product of one category per dimension,
// e.g. [USA/OR/Portland, Furniture]. Coordinates are positional with respect
// to the owning Namespace.
type Cell struct {
	Coords []hierarchy.Path
}

// NewCell builds a cell from per-dimension paths; the number of coordinates
// must match the namespace when the cell is used with one.
func NewCell(coords ...hierarchy.Path) Cell {
	cp := make([]hierarchy.Path, len(coords))
	copy(cp, coords)
	return Cell{Coords: cp}
}

// parseCell reads one cell; dims, when positive, is the coordinate count the
// cell must have.
func parseCell(s string, dims int) (Cell, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "[")
	s = strings.TrimSuffix(s, "]")
	parts := strings.Split(s, ",")
	if dims > 0 && len(parts) != dims {
		return Cell{}, fmt.Errorf("namespace: cell %q has %d coordinates, namespace has %d dimensions", s, len(parts), dims)
	}
	coords := make([]hierarchy.Path, len(parts))
	for i, p := range parts {
		path, err := hierarchy.ParsePath(p)
		if err != nil {
			return Cell{}, fmt.Errorf("namespace: cell %q: %w", s, err)
		}
		coords[i] = path
	}
	return Cell{Coords: coords}, nil
}

// String renders the cell in the paper's bracket notation.
func (c Cell) String() string {
	parts := make([]string, len(c.Coords))
	for i, p := range c.Coords {
		parts[i] = p.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Equal reports coordinate-wise equality.
func (c Cell) Equal(d Cell) bool {
	if len(c.Coords) != len(d.Coords) {
		return false
	}
	for i := range c.Coords {
		if !c.Coords[i].Equal(d.Coords[i]) {
			return false
		}
	}
	return true
}

// Covers reports whether cell c covers cell d: for every dimension, c's
// category is a parent of, or the same as, d's category (§3.1).
func (c Cell) Covers(d Cell) bool {
	if len(c.Coords) != len(d.Coords) {
		return false
	}
	for i := range c.Coords {
		if !c.Coords[i].Covers(d.Coords[i]) {
			return false
		}
	}
	return true
}

// Overlaps reports whether the two cells share any point of the cross
// product: per dimension, one coordinate must cover the other.
func (c Cell) Overlaps(d Cell) bool {
	if len(c.Coords) != len(d.Coords) {
		return false
	}
	for i := range c.Coords {
		if !c.Coords[i].Overlaps(d.Coords[i]) {
			return false
		}
	}
	return true
}

// Meet returns the intersection cell (the more specific coordinate per
// dimension) and whether the cells overlap at all.
func (c Cell) Meet(d Cell) (Cell, bool) {
	if len(c.Coords) != len(d.Coords) {
		return Cell{}, false
	}
	coords := make([]hierarchy.Path, len(c.Coords))
	for i := range c.Coords {
		m, ok := c.Coords[i].Meet(d.Coords[i])
		if !ok {
			return Cell{}, false
		}
		coords[i] = m
	}
	return Cell{Coords: coords}, true
}

// Compare orders cells lexicographically by coordinate, for deterministic
// output.
func (c Cell) Compare(d Cell) int {
	n := len(c.Coords)
	if len(d.Coords) < n {
		n = len(d.Coords)
	}
	for i := 0; i < n; i++ {
		if cmp := c.Coords[i].Compare(d.Coords[i]); cmp != 0 {
			return cmp
		}
	}
	return len(c.Coords) - len(d.Coords)
}

// Area is an interest area: a set of interest cells (§3.1). Data providers
// describe their holdings with areas; consumers phrase queries with them.
type Area struct {
	Cells []Cell
}

// NewArea builds an area from cells, normalizing away cells covered by other
// cells in the same area (they add no information).
func NewArea(cells ...Cell) Area {
	return Area{Cells: normalize(cells)}
}

// normalize drops cells covered by another cell and sorts for determinism.
func normalize(cells []Cell) []Cell {
	var kept []Cell
	for i, c := range cells {
		covered := false
		for j, d := range cells {
			if i == j {
				continue
			}
			if d.Covers(c) && !(c.Covers(d) && i < j) {
				// c is strictly covered by d, or they are equal and we keep
				// the first occurrence only.
				covered = true
				break
			}
		}
		if !covered {
			kept = append(kept, c)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Compare(kept[j]) < 0 })
	return kept
}

// String renders the area as cell strings joined by " + ".
func (a Area) String() string {
	parts := make([]string, len(a.Cells))
	for i, c := range a.Cells {
		parts[i] = c.String()
	}
	return strings.Join(parts, " + ")
}

// Empty reports whether the area has no cells.
func (a Area) Empty() bool { return len(a.Cells) == 0 }

// Equal reports set equality of normalized areas.
func (a Area) Equal(b Area) bool {
	an, bn := normalize(a.Cells), normalize(b.Cells)
	if len(an) != len(bn) {
		return false
	}
	for i := range an {
		if !an[i].Equal(bn[i]) {
			return false
		}
	}
	return true
}

// Covers reports whether area a covers area b: every cell of b is covered by
// some cell of a (§3.1).
func (a Area) Covers(b Area) bool {
	for _, bc := range b.Cells {
		ok := false
		for _, ac := range a.Cells {
			if ac.Covers(bc) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Overlaps reports whether there exists a cell both areas cover (§3.1).
func (a Area) Overlaps(b Area) bool {
	for _, ac := range a.Cells {
		for _, bc := range b.Cells {
			if ac.Overlaps(bc) {
				return true
			}
		}
	}
	return false
}

// Intersect returns the area covered by both a and b (the meets of all
// overlapping cell pairs, normalized).
func (a Area) Intersect(b Area) Area {
	var cells []Cell
	for _, ac := range a.Cells {
		for _, bc := range b.Cells {
			if m, ok := ac.Meet(bc); ok {
				cells = append(cells, m)
			}
		}
	}
	return NewArea(cells...)
}

// Union returns the normalized union of the two areas' cells.
func (a Area) Union(b Area) Area {
	cells := make([]Cell, 0, len(a.Cells)+len(b.Cells))
	cells = append(cells, a.Cells...)
	cells = append(cells, b.Cells...)
	return NewArea(cells...)
}

// CoversCell reports whether any cell of the area covers the given cell.
func (a Area) CoversCell(c Cell) bool {
	for _, ac := range a.Cells {
		if ac.Covers(c) {
			return true
		}
	}
	return false
}

// ParseArea parses "cell + cell + ..." over the namespace, each cell in
// bracket or bare form ("[USA/OR/Portland, Furniture]" or "USA/OR/Portland,
// Furniture"): ParseArea plus the coordinate-count check. Unknown categories
// are accepted (the paper allows referencing categories a peer has not yet
// learned); use Generalize to map them to known ancestors.
func (ns *Namespace) ParseArea(s string) (Area, error) { return parseArea(s, len(ns.dims)) }

// ParseArea reads an area expression without a namespace. The URN encoding
// of §3.4 is lexical, so a query can name an area before it reaches a
// catalog whose namespace validates it.
func ParseArea(s string) (Area, error) { return parseArea(s, 0) }

func parseArea(s string, dims int) (Area, error) {
	if strings.TrimSpace(s) == "" {
		return Area{}, fmt.Errorf("namespace: empty area expression")
	}
	parts := strings.Split(s, "+")
	cells := make([]Cell, 0, len(parts))
	for _, p := range parts {
		c, err := parseCell(p, dims)
		if err != nil {
			return Area{}, err
		}
		cells = append(cells, c)
	}
	return NewArea(cells...), nil
}

// MustParseArea is ParseArea for fixtures; it panics on error.
func (ns *Namespace) MustParseArea(s string) Area {
	a, err := ns.ParseArea(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Generalize maps every coordinate of every cell to its deepest known
// ancestor in the namespace's hierarchies (§3.5), so that references to
// unknown categories degrade with no loss of recall.
func (ns *Namespace) Generalize(a Area) Area {
	cells := make([]Cell, 0, len(a.Cells))
	for _, c := range a.Cells {
		if len(c.Coords) != len(ns.dims) {
			continue
		}
		coords := make([]hierarchy.Path, len(c.Coords))
		for i, p := range c.Coords {
			coords[i] = ns.dims[i].Generalize(p)
		}
		cells = append(cells, Cell{Coords: coords})
	}
	return NewArea(cells...)
}

// Validate checks that every coordinate of every cell names an existing
// category.
func (ns *Namespace) Validate(a Area) error {
	for _, c := range a.Cells {
		if len(c.Coords) != len(ns.dims) {
			return fmt.Errorf("namespace: cell %v has %d coordinates, want %d", c, len(c.Coords), len(ns.dims))
		}
		for i, p := range c.Coords {
			if !ns.dims[i].Contains(p) {
				return fmt.Errorf("namespace: unknown category %q in dimension %s", p, ns.dims[i].Name())
			}
		}
	}
	return nil
}
