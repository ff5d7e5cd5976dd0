package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/xmltree"
)

// roundTripValues are comparison literals that have each broken, or could
// break, render ∘ parse: the two bytes the lexer escapes, quotes, the empty
// string, and every spelling ParseFloat takes for a number (rendered bare).
var roundTripValues = []string{`a\b`, `x'y\`, `''`, "inf", "NaN", "0x10", "1e5", "+5", ".5", "it's", "",
	`\`, `\\'`, "0x1p-2", "-Infinity", " 5", "5 ", "a b", "(", "and", "=", "tab\there"}

var allCmpOps = []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpContains}

func resetParseTable() {
	for i := range parseTable {
		parseTable[i].Store(nil)
	}
}

// TestRenderParseIdentity pins the property the memoised canonical text
// rests on: parsing a comparison's rendering yields that comparison, and the
// rendering of anything parsed is a fixpoint. Before the renderer escaped
// backslashes, `a\b` came back as `ab` and `x'y\` swallowed its closing quote.
func TestRenderParseIdentity(t *testing.T) {
	for _, v := range roundTripValues {
		for _, op := range allCmpOps {
			c := Cmp{Path: "f", Op: op, Value: v}
			for _, lit := range []Predicate{c, And{L: Not{P: c}, R: OrPred{L: Exists{Path: "g/h"}, R: c}}} {
				text := lit.String()
				p, err := ParsePredicate(text)
				if err != nil {
					t.Fatalf("value %q: rendering %q does not parse: %v", v, text, err)
				}
				if p.AST() != lit {
					t.Errorf("value %q: %q parsed to %#v, want %#v", v, text, p.AST(), lit)
				}
				if p.String() != text {
					t.Errorf("value %q: %q re-renders as %q", v, text, p.String())
				}
			}
		}
	}
	for _, in := range []string{"price<10", "a == 'x'", "NOT  ( a=1 OR b CONTAINS c )", "a = 'unterminated", `a = 'q\'\\'`, "exists )"} {
		p, err := ParsePredicate(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		back, err := ParsePredicate(p.String())
		if err != nil || back.String() != p.String() || back.AST() != p.AST() {
			t.Errorf("%q: rendering %q is not a fixpoint (%v, %v)", in, p.String(), back, err)
		}
	}
	// A quoted path would render bare and parse back as something else.
	for _, bad := range []string{"'price' < 10", "exists 'a b'", "(exists 'a' and true)"} {
		if _, err := ParsePredicate(bad); err == nil {
			t.Errorf("ParsePredicate(%q): want error", bad)
		}
	}
}

// FuzzPredicateRoundTrip: arbitrary text either fails to parse or parses to a
// predicate whose rendering parses to an equal predicate with the same
// rendering; nothing panics.
func FuzzPredicateRoundTrip(f *testing.F) {
	for _, v := range roundTripValues {
		f.Add(Cmp{Path: "f", Op: OpEq, Value: v}.String())
		f.Add("f contains " + v)
	}
	for _, s := range []string{"", "true", "exists img", "not (a < 5 or b = 'c') and exists d",
		"'p' = 1", "exists 'a' and true", "a = 'open", "a = '\\", "((a=1))", "a!=b", "a = ) and b = (", "and = or"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePredicate(s)
		if err != nil {
			return
		}
		text := p.String()
		back, err := ParsePredicate(text)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", s, text, err)
		}
		if back.String() != text {
			t.Fatalf("%q renders as %q, then as %q", s, text, back.String())
		}
		if back.AST() != p.AST() {
			t.Fatalf("%q: tree %#v re-parses from %q as %#v", s, p.AST(), text, back.AST())
		}
		a, b := Select(p, URN("urn:x")), Select(back, URN("urn:x"))
		if !Equal(a, b) || Fingerprint(a) != Fingerprint(b) {
			t.Fatalf("%q: selects over %q and its re-parse differ", s, text)
		}
	})
}

// diffPaths covers every path form: plain steps the prepared evaluator walks
// in place, and the predicate, attribute, wildcard and malformed forms it
// hands to Find.
var diffPaths = []string{"price", "/price", "name", "listing/song", "listing/price", "missing", "listing/missing",
	"tag[k=v]", "listing[2]/song", "@id", "listing/@n", "*", "*/song", "", "/", "a//b"}

var diffValues = []string{"10", "9.5", " 10 ", "1e1", "", "NaN", "inf", "cheap", "Blue", "blue train", "Naima", "7"}

var diffItems = []string{
	`<item><price>10</price><name>Blue Train</name></item>`,
	`<item><name>no price</name></item>`,
	`<item><price>5</price><price>50</price></item>`,
	`<item id="7">lead<price> 10 </price><name>Blue <b>Train</b></name></item>`,
	`<item><price>cheap</price><name></name></item>`,
	`<item><price>NaN</price><tag k="w">9</tag><tag k="v">10</tag></item>`,
	`<tuple><listing><cd>x</cd></listing><listing n="2"><song>Locomotion</song><song>Naima</song><price>9.5</price></listing></tuple>`,
	`<item><a><c>1</c></a><a><b>10</b></a><price>1e1</price></item>`,
	`<item/>`,
}

func randomPredicate(rng *rand.Rand, depth int) Predicate {
	if depth > 0 {
		switch rng.Intn(5) {
		case 0:
			return And{L: randomPredicate(rng, depth-1), R: randomPredicate(rng, depth-1)}
		case 1:
			return OrPred{L: randomPredicate(rng, depth-1), R: randomPredicate(rng, depth-1)}
		case 2:
			return Not{P: randomPredicate(rng, depth-1)}
		}
	}
	path := diffPaths[rng.Intn(len(diffPaths))]
	switch rng.Intn(12) {
	case 0:
		return True{}
	case 1, 2:
		return Exists{Path: path}
	case 3:
		// A prepared operand inside a tree: Prepare must see through it.
		return MustParsePredicate("price >= 10")
	}
	return Cmp{Path: path, Op: allCmpOps[rng.Intn(len(allCmpOps))], Value: diffValues[rng.Intn(len(diffValues))]}
}

// evalRef is the reference evaluator the prepared form is held to: it
// interprets the syntax tree, reading every path and literal afresh for each
// item. A prepared operand is read as its tree. A comparison is numeric when
// both sides, trimmed, parse as floats other than NaN; otherwise it compares
// text.
func evalRef(p Predicate, it *xmltree.Node) bool {
	switch p := p.(type) {
	case *Prepared:
		return evalRef(p.AST(), it)
	case Cmp:
		v := strings.TrimSpace(it.Value(p.Path))
		if p.Op == OpContains {
			return strings.Contains(strings.ToLower(v), strings.ToLower(p.Value))
		}
		ln, lerr := strconv.ParseFloat(v, 64)
		rn, rerr := strconv.ParseFloat(strings.TrimSpace(p.Value), 64)
		cmp := strings.Compare(v, p.Value)
		if lerr == nil && rerr == nil && !math.IsNaN(ln) && !math.IsNaN(rn) {
			cmp = 0
			if ln < rn {
				cmp = -1
			} else if ln > rn {
				cmp = 1
			}
		}
		switch p.Op {
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
	case Exists:
		return it.Find(p.Path) != nil
	case And:
		return evalRef(p.L, it) && evalRef(p.R, it)
	case OrPred:
		return evalRef(p.L, it) || evalRef(p.R, it)
	case Not:
		return !evalRef(p.P, it)
	case True:
		return true
	}
	panic(fmt.Sprintf("evalRef: %T is not a predicate", p))
}

// TestPreparedMatchesInterpreted is the differential the prepared form is
// held to: over generated predicates × generated items, the compiled
// evaluator agrees with evalRef on the tree, whether the predicate was
// prepared from the tree or parsed from its rendering; and a select built
// from the tree is indistinguishable — to Equal, Fingerprint, Marshal and
// EncodeFrame — from one built from the tree's prepared form.
func TestPreparedMatchesInterpreted(t *testing.T) {
	items := make([]*xmltree.Node, len(diffItems))
	for i, s := range diffItems {
		items[i] = xmltree.MustParse(s)
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 3000; i++ {
		lit := randomPredicate(rng, rng.Intn(4))
		prepared := []*Prepared{Prepare(lit)}
		if p, err := ParsePredicate(lit.String()); err == nil && p.AST() == prepared[0].AST() {
			prepared = append(prepared, p)
		}
		for _, p := range prepared {
			for j, it := range items {
				if got, want := p.Eval(it), evalRef(lit, it); got != want {
					t.Fatalf("%s on item %d: prepared %v, reference %v", lit, j, got, want)
				}
			}
		}

		sel, twin := Select(lit, URN("urn:x")), Select(Prepare(lit), URN("urn:x"))
		if !Equal(twin, sel) || !Equal(sel, twin) {
			t.Fatalf("%s: select over the tree not Equal to select over its prepared form", lit)
		}
		if a, b := Fingerprint(sel), Fingerprint(twin); a != b {
			t.Fatalf("%s: fingerprints %x and %x", lit, a, b)
		}
		if a, b := marshalNode(sel).String(), marshalNode(twin).String(); a != b {
			t.Fatalf("%s: marshals as %q, twin as %q", lit, a, b)
		}
		var frames [2]string
		for k, root := range []*Node{sel, twin} {
			enc := xmltree.GetFrameEncoder()
			EncodeFrame(NewPlan("q", "t:1", Display(root)), enc)
			frames[k] = enc.String()
			enc.Release()
		}
		if frames[0] != frames[1] {
			t.Fatalf("%s: frames %q and %q", lit, frames[0], frames[1])
		}
	}
}

// FuzzPredicateEval: for any predicate text and item that both parse, the
// prepared evaluator agrees with evalRef on the tree, and the canonical text
// re-parsed evaluates the same. Under plain `go test` only the seeds run.
func FuzzPredicateEval(f *testing.F) {
	k := 0
	for _, it := range diffItems {
		for _, v := range diffValues {
			f.Add(Cmp{Path: diffPaths[k%len(diffPaths)], Op: allCmpOps[k%len(allCmpOps)], Value: v}.String(), it)
			k++
		}
	}
	for _, c := range [][2]string{
		{"price >= 1000", `<item><price>NaN</price></item>`},
		{"price = 'NaN'", `<item><price>5</price></item>`},
		{"price < ' 5 '", `<item><price> NaN </price></item>`},
		{"price != 5", `<item><price> NaN </price></item>`},
		{"price < 5", `<item><name>no price</name></item>`},
		{"price > 1000", `<item><price>N/A</price></item>`},
		{"price = 10 and name = 'x'", `<item><price> 10 </price><name> x </name></item>`},
		{"not (price < 5 or exists img) and name contains 'BLUE'", `<item><price>7</price><name>Blue Train</name></item>`},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, text, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		p, err := ParsePredicate(text)
		if err != nil {
			return
		}
		it, err := xmltree.ParseString(src)
		if err != nil {
			return
		}
		got := p.Eval(it)
		if want := evalRef(p.AST(), it); got != want {
			t.Fatalf("%q on %q: prepared %v, reference %v", p, src, got, want)
		}
		back, err := ParsePredicate(p.String())
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", text, p, err)
		}
		if back.Eval(it) != got {
			t.Fatalf("%q on %q: %v, re-parsed from %q: %v", text, src, got, p, !got)
		}
	})
}

// TestParseTableBounded drives the parse table past every bound it states.
func TestParseTableBounded(t *testing.T) {
	resetParseTable()
	defer resetParseTable()

	// More distinct predicates than slots, each carved out of one large
	// buffer the table must not pin, and each as operator-dense as an
	// admitted text gets: eleven comparisons render to just under
	// parseTableMaxText bytes.
	var sb strings.Builder
	var spans [][2]int
	for i := 0; i < 8*parseTableSlots; i++ {
		start := sb.Len()
		fmt.Fprintf(&sb, "p<%d", i)
		for k := 0; k < 10; k++ {
			fmt.Fprintf(&sb, " or a=%d", (i+k)%10)
		}
		spans = append(spans, [2]int{start, sb.Len()})
	}
	frame := sb.String()
	lo := uintptr(unsafe.Pointer(unsafe.StringData(frame)))
	inFrame := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return len(s) > 0 && p >= lo && p < lo+uintptr(len(frame))
	}
	for _, sp := range spans {
		in := frame[sp[0]:sp[1]]
		if len(in) > parseTableMaxText {
			t.Fatalf("generated text is %d bytes", len(in))
		}
		p, err := ParsePredicate(in)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := ParsePredicate(in); again != p {
			t.Fatalf("%q: not answered from the table", in)
		}
	}
	resident, textBytes := 0, 0
	for i := range parseTable {
		e := parseTable[i].Load()
		if e == nil {
			continue
		}
		resident++
		textBytes += len(e.src)
		if unsafe.StringData(e.pred.text) != unsafe.StringData(e.src) {
			textBytes += len(e.pred.text)
		}
		if inFrame(e.src) || inFrame(e.pred.text) {
			t.Fatalf("entry %q aliases the input", e.src)
		}
		for ast := e.pred.AST(); ; {
			or, ok := ast.(OrPred)
			if !ok {
				break
			}
			if c := or.R.(Cmp); inFrame(c.Path) || inFrame(c.Value) {
				t.Fatalf("entry %q: tree aliases the input", e.src)
			}
			ast = or.L
		}
	}
	if resident < parseTableSlots*9/10 {
		t.Fatalf("only %d of %d slots resident after %d texts", resident, parseTableSlots, len(spans))
	}
	if max := parseTableSlots * 2 * parseTableMaxText; textBytes > max {
		t.Fatalf("table retains %d text bytes; cap is %d", textBytes, max)
	}
	// The trees under the texts: the full table must weigh less than its
	// stated cap.
	var full, empty runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&full)
	resetParseTable()
	runtime.GC()
	runtime.ReadMemStats(&empty)
	if held := int64(full.HeapAlloc) - int64(empty.HeapAlloc); held > parseTableMaxBytes {
		t.Fatalf("full table held %d bytes; cap is %d", held, parseTableMaxBytes)
	} else {
		t.Logf("full table: %d entries, %d text bytes, %d heap bytes", resident, textBytes, held)
	}

	// Over-long text, and admissible text whose rendering is over-long, parse
	// but are not admitted.
	long := "price < 1" + strings.Repeat(" or price < 1", parseTableMaxText/13)
	grows := "a=" + strings.Repeat(`\`, parseTableMaxText-2)
	for _, in := range []string{long, grows} {
		p, err := ParsePredicate(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(in) <= parseTableMaxText && len(p.String()) <= parseTableMaxText {
			t.Fatalf("%q is admissible", in)
		}
		for _, slot := range parseSlots(in) {
			if e := slot.Load(); e != nil && e.src == in {
				t.Fatalf("%d-byte text rendering to %d bytes was admitted", len(in), len(p.String()))
			}
		}
	}

	// Two hot texts sharing a first slot both stay resident: alternating
	// between them parses nothing.
	resetParseTable()
	first := map[*atomic.Pointer[parseEntry]]string{}
	for i := 0; ; i++ {
		text := fmt.Sprintf("price < %d", i)
		other, taken := first[parseSlots(text)[0]]
		if !taken {
			first[parseSlots(text)[0]] = text
			continue
		}
		MustParsePredicate(text)
		MustParsePredicate(other)
		parses := predParses.Load()
		for k := 0; k < 4; k++ {
			MustParsePredicate(text)
			MustParsePredicate(other)
		}
		if n := predParses.Load() - parses; n != 0 {
			t.Fatalf("%q and %q share a slot and were parsed %d more times", text, other, n)
		}
		break
	}

	// Concurrent parsers over colliding texts: every answer is the right
	// predicate, whatever the slot held a moment before (run under -race).
	it := xmltree.MustParse(`<i><price>100</price></i>`)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*parseTableSlots; i++ {
				n := (i*7 + g) % (2 * parseTableSlots)
				text := fmt.Sprintf("price < %d", n)
				p, err := ParsePredicate(text)
				if err != nil || p.String() != text || p.Eval(it) != (100 < n) {
					t.Errorf("goroutine %d: %q parsed to %v (%v)", g, text, p, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var predicateSink Predicate

// BenchmarkParsePredicate prices the parser (cold: more texts in rotation
// than the table can hold, so every lookup misses) against a table hit.
func BenchmarkParsePredicate(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		texts := make([]string, 16*256)
		for i := range texts {
			texts[i] = fmt.Sprintf("price < %d", i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			predicateSink = MustParsePredicate(texts[i%len(texts)])
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			predicateSink = MustParsePredicate("price < 20")
		}
	})
}

var stringSink string

// BenchmarkPredicateString renders what a parsed select holds, and the same
// tree as a literal.
func BenchmarkPredicateString(b *testing.B) {
	for _, text := range []string{"price < 20", "(price < 100 and category contains 'Books')"} {
		p := MustParsePredicate(text)
		b.Run("parsed/"+text, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stringSink = p.String()
			}
		})
	}
	lit := Cmp{Path: "price", Op: OpLt, Value: "20"}
	b.Run("literal/price < 20", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stringSink = lit.String()
		}
	})
}
