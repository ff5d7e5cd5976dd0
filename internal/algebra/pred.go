// Package algebra defines the logical query algebra of mutant query plans:
// operator trees over XML item collections, a small predicate language, XML
// (de)serialization of plans — the paper's "XML serializations of algebraic
// query plan graphs" — and the rewrite rules the paper's optimizer relies
// on (push-select-through-union, or-choice, absorption).
//
// A predicate is syntax until it is prepared. The syntax tree — Cmp, And,
// OrPred, Not, Exists and True values, built by hand or by the parser —
// renders the surface syntax and is what analysis reads; it cannot evaluate.
// Prepare (prepared.go) turns a tree into a *Prepared: the same tree, its
// canonical text rendered once, and the one evaluator, with paths parsed and
// literals classified once. ParsePredicate returns that form, and a select
// holds nothing else: Node.Pred is a *Prepared.
package algebra

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Predicate is a boolean condition over one XML item, as syntax: Cmp,
// Exists, And, OrPred, Not, True, or a *Prepared operand. The set is closed;
// Prepare compiles any member into the evaluator a select holds.
type Predicate interface {
	// String renders the predicate in the parseable surface syntax.
	String() string
	// appendTo appends the rendering to b.
	appendTo(b []byte) []byte
}

// CmpOp enumerates comparison operators of the predicate language.
type CmpOp int

// Comparison operators. Contains performs IR-style substring matching, the
// only query capability typical file-sharing systems offer (§1); the rest
// are the richer database-style comparisons the paper argues for.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpContains
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpContains:
		return "contains"
	default:
		return "?"
	}
}

// Cmp compares the item value at Path against a literal. When both sides
// read as numbers under xmltree.Number (trimmed, not NaN) the comparison is
// numeric, otherwise lexicographic (Contains is always textual).
type Cmp struct {
	Path  string
	Op    CmpOp
	Value string
}

// String implements Predicate.
func (c Cmp) String() string { return render(c) }

// predRenders counts calls into the renderer and predParses runs of the
// parser, so a test can show the hop path does neither on a warm table.
var predRenders, predParses atomic.Int64

// render is the one renderer of the surface syntax: every literal's String
// goes through it, and a prepared predicate keeps its result. ParsePredicate
// inverts it exactly — the text is what the plan fingerprint digests and what
// the parse table is keyed by, so a predicate must mean the same after any
// number of render/parse hops (FuzzPredicateRoundTrip).
func render(p Predicate) string {
	predRenders.Add(1)
	return string(p.appendTo(make([]byte, 0, 64)))
}

func (c Cmp) appendTo(b []byte) []byte {
	b = append(b, c.Path...)
	b = append(b, ' ')
	b = append(b, c.Op.String()...)
	b = append(b, ' ')
	return appendLiteral(b, c.Value)
}

// appendLiteral renders a comparison literal: bare when numeric, otherwise
// quoted with ' and \ escaped — the two bytes the lexer gives meaning to
// inside quotes.
func appendLiteral(b []byte, v string) []byte {
	if _, err := strconv.ParseFloat(v, 64); err == nil {
		return append(b, v...)
	}
	b = append(b, '\'')
	for i := 0; i < len(v); i++ {
		if v[i] == '\'' || v[i] == '\\' {
			b = append(b, '\\')
		}
		b = append(b, v[i])
	}
	return append(b, '\'')
}

// Exists is true when the path matches at least one node in the item.
type Exists struct {
	Path string
}

// String implements Predicate.
func (e Exists) String() string { return render(e) }

func (e Exists) appendTo(b []byte) []byte { return append(append(b, "exists "...), e.Path...) }

// And is predicate conjunction.
type And struct {
	L, R Predicate
}

// String implements Predicate.
func (a And) String() string { return render(a) }

func (a And) appendTo(b []byte) []byte {
	b = a.L.appendTo(append(b, '('))
	b = a.R.appendTo(append(b, " and "...))
	return append(b, ')')
}

// OrPred is predicate disjunction (named to avoid clashing with the plan
// Or operator).
type OrPred struct {
	L, R Predicate
}

// String implements Predicate.
func (o OrPred) String() string { return render(o) }

func (o OrPred) appendTo(b []byte) []byte {
	b = o.L.appendTo(append(b, '('))
	b = o.R.appendTo(append(b, " or "...))
	return append(b, ')')
}

// Not is predicate negation.
type Not struct {
	P Predicate
}

// String implements Predicate.
func (n Not) String() string { return render(n) }

func (n Not) appendTo(b []byte) []byte { return n.P.appendTo(append(b, "not "...)) }

// True is the always-true predicate.
type True struct{}

// String implements Predicate.
func (True) String() string { return "true" }

func (True) appendTo(b []byte) []byte { return append(b, "true"...) }

// ParsePredicate parses the surface syntax used in serialized plans:
//
//	price < 10
//	name contains 'chair'
//	exists images
//	(price <= 10 and seller/city = 'Portland') or not sold = 'yes'
//	true
//
// Operator precedence: not > and > or. Comparisons take a path on the left
// and a (quoted string or numeric) literal on the right; a path is never
// quoted. The result is in prepared form, and text seen before is answered
// from the parse table without parsing (prepared.go).
func ParsePredicate(s string) (*Prepared, error) {
	slots := parseSlots(s)
	for _, slot := range slots {
		if e := slot.Load(); e != nil && e.src == s {
			return e.pred, nil
		}
	}
	admit := len(s) <= parseTableMaxText
	if admit {
		// The tree's paths and bare literals are substrings of what was
		// lexed, and a table entry outlives the wire frame s may point into.
		s = strings.Clone(s)
	}
	ast, err := parseAST(s)
	if err != nil {
		return nil, err
	}
	pred := Prepare(ast)
	if admit && len(pred.text) <= parseTableMaxText {
		if pred.text == s {
			pred.text = s // canonical on arrival: the entry keeps one copy, not two
		}
		slot := slots[0]
		if slot.Load() != nil && slots[1].Load() == nil {
			slot = slots[1]
		}
		slot.Store(&parseEntry{src: s, pred: pred})
	}
	return pred, nil
}

// parseAST parses s into its literal syntax tree.
func parseAST(s string) (Predicate, error) {
	predParses.Add(1)
	p := &predParser{toks: lexPredicate(s)}
	pred, err := p.parseOr()
	if err != nil {
		return nil, fmt.Errorf("algebra: predicate %q: %w", s, err)
	}
	if !p.eof() {
		return nil, fmt.Errorf("algebra: predicate %q: trailing input at %q", s, p.peek())
	}
	return pred, nil
}

// MustParsePredicate is ParsePredicate for fixtures; panics on error.
func MustParsePredicate(s string) *Prepared {
	p, err := ParsePredicate(s)
	if err != nil {
		panic(err)
	}
	return p
}

func lexPredicate(s string) []string {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == '\'':
			j := i + 1
			var b strings.Builder
			for j < len(s) && s[j] != '\'' {
				if s[j] == '\\' && j+1 < len(s) {
					j++
				}
				b.WriteByte(s[j])
				j++
			}
			toks = append(toks, "'"+b.String())
			i = j + 1
		case strings.ContainsRune("=<>!", rune(c)):
			j := i + 1
			if j < len(s) && s[j] == '=' {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		default:
			j := i
			for j < len(s) && !strings.ContainsRune(" \t\n()=<>!", rune(s[j])) && s[j] != '\'' {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		}
	}
	return toks
}

type predParser struct {
	toks []string
	pos  int
}

func (p *predParser) eof() bool { return p.pos >= len(p.toks) }

func (p *predParser) peek() string {
	if p.eof() {
		return ""
	}
	return p.toks[p.pos]
}

func (p *predParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *predParser) parseOr() (Predicate, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for strings.EqualFold(p.peek(), "or") {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = OrPred{L: l, R: r}
	}
	return l, nil
}

func (p *predParser) parseAnd() (Predicate, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for strings.EqualFold(p.peek(), "and") {
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = And{L: l, R: r}
	}
	return l, nil
}

func (p *predParser) parseUnary() (Predicate, error) {
	switch {
	case strings.EqualFold(p.peek(), "not"):
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not{P: inner}, nil
	case p.peek() == "(":
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ")" {
			return nil, fmt.Errorf("missing closing parenthesis")
		}
		p.next()
		return inner, nil
	case strings.EqualFold(p.peek(), "true"):
		p.next()
		return True{}, nil
	case strings.EqualFold(p.peek(), "exists"):
		p.next()
		path, err := p.path("exists")
		if err != nil {
			return nil, err
		}
		return Exists{Path: path}, nil
	default:
		return p.parseCmp()
	}
}

// path takes the next token as an item path. A quoted token is refused: the
// renderer writes paths bare, so a quoted path would not survive one render.
func (p *predParser) path(what string) (string, error) {
	path := p.next()
	if path == "" {
		return "", fmt.Errorf("missing %s path", what)
	}
	if path[0] == '\'' {
		return "", fmt.Errorf("quoted %s path %q", what, path[1:])
	}
	return path, nil
}

func (p *predParser) parseCmp() (Predicate, error) {
	path, err := p.path("comparison")
	if err != nil {
		return nil, err
	}
	opTok := p.next()
	var op CmpOp
	switch strings.ToLower(opTok) {
	case "=", "==":
		op = OpEq
	case "!=":
		op = OpNe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	case "contains":
		op = OpContains
	default:
		return nil, fmt.Errorf("unknown operator %q", opTok)
	}
	lit := p.next()
	if lit == "" {
		return nil, fmt.Errorf("missing literal after %q", opTok)
	}
	lit = strings.TrimPrefix(lit, "'")
	return Cmp{Path: path, Op: op, Value: lit}, nil
}
