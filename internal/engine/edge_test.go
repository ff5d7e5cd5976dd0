package engine

import (
	"testing"

	"repro/internal/algebra"
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
