package algebra

import (
	"strings"
	"sync/atomic"

	"repro/internal/xmltree"
)

// Prepared is a predicate in prepared form: its syntax tree (with no
// prepared operands, however it was assembled), its canonical text rendered
// once, and the evaluator compiled from the tree — paths parsed, numeric
// literals parsed and contains needles lower-cased once instead of once per
// item. It is the only form that evaluates. A plan's selects travel verbatim
// from server to server, so a server fingerprints, compares, evaluates and
// re-encodes the same predicate many times; all of those read a Prepared.
// It is immutable and shared freely.
type Prepared struct {
	ast  Predicate
	text string
	eval func(*xmltree.Node) bool
}

// Eval reports whether the item satisfies the predicate.
func (p *Prepared) Eval(item *xmltree.Node) bool { return p.eval(item) }

// String implements Predicate: the text the tree renders to.
func (p *Prepared) String() string { return p.text }

func (p *Prepared) appendTo(b []byte) []byte { return append(b, p.text...) }

// AST returns the predicate's syntax tree: Cmp, And, OrPred, Not, Exists and
// True values, for code that analyses a predicate's structure.
func (p *Prepared) AST() Predicate { return p.ast }

// Prepare returns p in prepared form; a prepared predicate is returned as is.
func Prepare(p Predicate) *Prepared {
	if pp, ok := p.(*Prepared); ok {
		return pp
	}
	ast, eval := compile(p)
	return &Prepared{ast: ast, text: ast.String(), eval: eval}
}

// compile returns p's tree with prepared operands replaced by their trees,
// and its evaluator.
func compile(p Predicate) (Predicate, func(*xmltree.Node) bool) {
	switch p := p.(type) {
	case *Prepared:
		return p.ast, p.eval
	case Cmp:
		c := &cmpEval{path: xmltree.ParsePath(p.Path), op: p.Op, value: p.Value}
		if p.Op == OpContains {
			c.value = strings.ToLower(p.Value)
		} else {
			c.num, c.numeric = xmltree.Number(p.Value)
		}
		return p, c.eval
	case Exists:
		path := xmltree.ParsePath(p.Path)
		return p, func(it *xmltree.Node) bool { return path.First(it) != nil }
	case And:
		la, l := compile(p.L)
		ra, r := compile(p.R)
		return And{L: la, R: ra}, func(it *xmltree.Node) bool { return l(it) && r(it) }
	case OrPred:
		la, l := compile(p.L)
		ra, r := compile(p.R)
		return OrPred{L: la, R: ra}, func(it *xmltree.Node) bool { return l(it) || r(it) }
	case Not:
		a, e := compile(p.P)
		return Not{P: a}, func(it *xmltree.Node) bool { return !e(it) }
	case True:
		return p, func(*xmltree.Node) bool { return true }
	}
	panic("algebra: nil predicate operand")
}

// cmpEval is a compiled Cmp: value is the literal (lower-cased for contains),
// num its reading under xmltree.Number when it has one.
type cmpEval struct {
	path    xmltree.Path
	op      CmpOp
	value   string
	num     float64
	numeric bool
}

func (c *cmpEval) eval(it *xmltree.Node) bool {
	v := strings.TrimSpace(c.path.Value(it))
	if c.op == OpContains {
		return strings.Contains(strings.ToLower(v), c.value)
	}
	if c.numeric {
		if ln, ok := xmltree.Number(v); ok {
			cmp := 0
			switch {
			case ln < c.num:
				cmp = -1
			case ln > c.num:
				cmp = 1
			}
			return c.op.holds(cmp)
		}
	}
	return c.op.holds(strings.Compare(v, c.value))
}

// holds reports whether a three-way comparison result satisfies the operator.
func (op CmpOp) holds(cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// The parse table answers ParsePredicate for text it has seen: the nine
// identical select branches of a pushed-down plan, and the same plan arriving
// again, are parsed once per process instead of once per branch per hop. It
// is fixed-size and lock-free: a slot is one atomic pointer to an immutable
// entry, and a text may sit in either of the two slots its hash names — with
// one slot, two hot predicates that share it evict each other on every use
// (two of point_hot's eight did). A text finding both taken replaces the
// first. An entry owns its strings (ParsePredicate clones the text before
// parsing it), so it never pins the wire frame the text arrived in.
const (
	parseTableSlots = 256
	// parseTableMaxText caps the length of an admitted text and of its
	// canonical rendering, so the table retains at most
	// parseTableSlots × 2 × parseTableMaxText bytes of text.
	parseTableMaxText = 128
	// parseTableMaxBytes bounds everything the table can retain, trees and
	// evaluators included, when hostile input fills every slot with the most
	// operators a rendering of parseTableMaxText bytes can spell (measured:
	// 0.67 MB). An entry for `price < 20` weighs about 300 bytes.
	parseTableMaxBytes = 1 << 20
)

type parseEntry struct {
	src  string
	pred *Prepared
}

var parseTable [parseTableSlots]atomic.Pointer[parseEntry]

// parseSlots returns the two slots a predicate text may occupy.
func parseSlots(s string) [2]*atomic.Pointer[parseEntry] {
	h := fnvStr(fnvOffset64, s)
	return [2]*atomic.Pointer[parseEntry]{&parseTable[h%parseTableSlots], &parseTable[(h>>32)%parseTableSlots]}
}
