package engine

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/stats"
	"repro/internal/xmltree"
)

func TestEmptyInputsAllOperators(t *testing.T) {
	empty := algebra.Data()
	some := algebra.Data(items(`<i><k>1</k></i>`)...)

	cases := []struct {
		name string
		node *algebra.Node
		want int
	}{
		{"select-empty", algebra.Select(algebra.True{}, empty.Clone()), 0},
		{"project-empty", algebra.Project("p", []string{"k"}, empty.Clone()), 0},
		{"join-empty-left", algebra.Join("k", "k", empty.Clone(), some.Clone()), 0},
		{"join-empty-right", algebra.Join("k", "k", some.Clone(), empty.Clone()), 0},
		{"union-empties", algebra.Union(empty.Clone(), empty.Clone()), 0},
		{"difference-empty-left", algebra.Difference(empty.Clone(), some.Clone()), 0},
		{"difference-empty-right", algebra.Difference(some.Clone(), empty.Clone()), 1},
		{"topn-empty", algebra.TopN(3, "k", false, empty.Clone()), 0},
	}
	for _, c := range cases {
		got, err := Evaluate(c.node)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != c.want {
			t.Errorf("%s: %d items, want %d", c.name, len(got), c.want)
		}
	}
	// Count over empty input yields <count>0</count>, not empty.
	got, err := Evaluate(algebra.Count(empty.Clone()))
	if err != nil || len(got) != 1 || got[0].InnerText() != "0" {
		t.Fatalf("count-empty: %v %v", got, err)
	}
}

func TestDifferenceBagSemantics(t *testing.T) {
	// Difference drops every copy of a matching item (set-style filter on
	// a bag), which is what Example 3's rewrite requires.
	l := algebra.Data(items(`<i>1</i>`, `<i>1</i>`, `<i>2</i>`)...)
	r := algebra.Data(items(`<i>1</i>`)...)
	got, err := Evaluate(algebra.Difference(l, r))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].InnerText() != "2" {
		t.Fatalf("difference = %v", got)
	}
}

func TestSelfJoin(t *testing.T) {
	d := algebra.Data(items(`<i><k>1</k></i>`, `<i><k>1</k></i>`)...)
	got, err := Evaluate(algebra.Join("k", "k", d, d.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("self join = %d, want 4", len(got))
	}
}

func TestJoinKeyWhitespaceTrimmed(t *testing.T) {
	l := algebra.Data(items(`<a><k> x </k></a>`)...)
	r := algebra.Data(items(`<b><k>x</k></b>`)...)
	got, err := Evaluate(algebra.Join("k", "k", l, r))
	if err != nil || len(got) != 1 {
		t.Fatalf("whitespace keys: %d, %v", len(got), err)
	}
}

func TestTopNTieStability(t *testing.T) {
	d := algebra.Data(items(
		`<i><p>5</p><tag>first</tag></i>`,
		`<i><p>5</p><tag>second</tag></i>`,
		`<i><p>5</p><tag>third</tag></i>`,
	)...)
	got, err := Evaluate(algebra.TopN(2, "p", false, d))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Value("tag") != "first" || got[1].Value("tag") != "second" {
		t.Fatalf("tie order not stable: %v", got)
	}
}

// TestTopNOrderIsTotal: TopN's answer is the same whichever order its
// inputs arrive in, as a distributed union meets its branches in a different
// order than the central evaluator. Numbers sort first, in numeric order,
// then every other value in text order; NaN and a missing field count as
// text, and Desc reverses the whole order.
func TestTopNOrderIsTotal(t *testing.T) {
	mixed := []string{`<i><p>10</p></i>`, `<i><p>9</p></i>`, `<i><p>5x</p></i>`}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, perm := range perms {
		in := []string{mixed[perm[0]], mixed[perm[1]], mixed[perm[2]]}
		for _, tc := range []struct {
			desc bool
			want string
		}{{false, "9 10 5x"}, {true, "5x 10 9"}} {
			got, err := Evaluate(algebra.TopN(3, "p", tc.desc, algebra.Data(items(in...)...)))
			if err != nil {
				t.Fatal(err)
			}
			if s := topValues(got); s != tc.want {
				t.Errorf("order %v desc=%v: %q, want %q", perm, tc.desc, s, tc.want)
			}
		}
	}
	for _, tc := range []struct {
		name string
		in   []string
		want string
	}{
		{"nan", []string{`<i><p>NaN</p></i>`, `<i><p>3</p></i>`, `<i><p>1</p></i>`}, "1 3 NaN"},
		{"missing", []string{`<i><q>x</q></i>`, `<i><p>5</p></i>`, `<i><p>2</p></i>`}, "2 5 "},
	} {
		got, err := Evaluate(algebra.TopN(3, "p", false, algebra.Data(items(tc.in...)...)))
		if err != nil {
			t.Fatal(err)
		}
		if s := topValues(got); s != tc.want {
			t.Errorf("%s: %q, want %q", tc.name, s, tc.want)
		}
	}
}

// TestNaNReadsAsText: select, TopN and histogram collection read a field
// as a number through xmltree.Number alone, under which NaN is text. A
// select once compared NaN as a number equal to every number, so `price = 5`
// held on <price>NaN</price> and `price = 'NaN'` on <price>5</price>, while
// TopN and the histogram already read NaN as text.
func TestNaNReadsAsText(t *testing.T) {
	in := []string{`<i><id>nan</id><p>NaN</p></i>`, `<i><id>five</id><p>5</p></i>`, `<i><id>none</id></i>`}
	ids := func(got []*xmltree.Node) string {
		vs := make([]string, len(got))
		for i, it := range got {
			vs[i] = it.Value("id")
		}
		return strings.Join(vs, " ")
	}
	for _, tc := range []struct {
		pred string
		want string // the ids selected, in input order
	}{
		{"p = 5", "five"},
		{"p = 'NaN'", "nan"},
		{"p != 5", "nan none"},
		{"p != 'NaN'", "five none"},
		{"p < 5", "none"},
		{"p > 5", "nan"},
	} {
		got, err := Evaluate(algebra.Select(algebra.MustParsePredicate(tc.pred), algebra.Data(items(in...)...)))
		if err != nil {
			t.Fatal(err)
		}
		if s := ids(got); s != tc.want {
			t.Errorf("%s: selected %q, want %q", tc.pred, s, tc.want)
		}
	}
	got, err := Evaluate(algebra.TopN(3, "p", false, algebra.Data(items(in...)...)))
	if err != nil {
		t.Fatal(err)
	}
	if s := ids(got); s != "five none nan" {
		t.Errorf("TopN ascending: %q, want the number first, then text in text order", s)
	}
	if h := stats.Collect(items(in[:2]...), nil, "p", 4).Hist; h != nil {
		t.Errorf("histogram %s published over a NaN value", h.Encode())
	}
}

func topValues(got []*xmltree.Node) string {
	vs := make([]string, len(got))
	for i, it := range got {
		vs[i] = it.Value("p")
	}
	return strings.Join(vs, " ")
}

func TestProjectPreservesNestedStructure(t *testing.T) {
	d := algebra.Data(items(`<i><seller><city>Portland</city><zip>97201</zip></seller><p>5</p></i>`)...)
	got, err := Evaluate(algebra.Project("out", []string{"seller"}, d))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Value("seller/city") != "Portland" {
		t.Fatalf("nested projection = %s", got[0])
	}
}

func TestOrEvaluatesOnlyFirstAlternative(t *testing.T) {
	// The second alternative contains an unresolved URN; because the first
	// is chosen, evaluation succeeds — matching §4.2's semantics that any
	// alternative suffices.
	o := algebra.Or(
		algebra.Data(items(`<i>1</i>`)...),
		algebra.URN("urn:never:visited"),
	)
	got, err := Evaluate(o)
	if err != nil || len(got) != 1 {
		t.Fatalf("or: %v %v", got, err)
	}
}

func TestReduceErrorsOnUnresolved(t *testing.T) {
	if _, err := Reduce(algebra.Select(algebra.True{}, algebra.URN("urn:X"))); err == nil {
		t.Fatal("reduce of unresolved subtree must error")
	}
}

func TestDeepPlanEvaluation(t *testing.T) {
	// A 20-level chain of selects stays correct.
	node := algebra.Data(items(`<i><v>5</v></i>`, `<i><v>50</v></i>`)...)
	var cur *algebra.Node = node
	for i := 0; i < 20; i++ {
		cur = algebra.Select(algebra.MustParsePredicate("v < 100"), cur)
	}
	got, err := Evaluate(cur)
	if err != nil || len(got) != 2 {
		t.Fatalf("deep chain: %d %v", len(got), err)
	}
}
