package mqp

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/xmltree"
)

func histURL(addr string, lo, hi float64) *algebra.Node {
	u := algebra.URL(addr, "/d")
	h := &stats.Histogram{Path: "price", Lo: lo, Hi: hi, Counts: []int{1, 1}}
	u.Annotate(algebra.AnnotHistogram, h.Encode())
	return u
}

func TestPruneByStatsRangeChecks(t *testing.T) {
	cases := []struct {
		pred   string
		lo, hi float64
		prune  bool
	}{
		{"price < 10", 50, 100, true},
		{"price < 10", 5, 100, false},
		{"price <= 50", 50, 100, false}, // boundary can match
		{"price <= 49", 50, 100, true},
		{"price > 100", 50, 100, true},
		{"price > 99", 50, 100, false},
		{"price >= 101", 50, 100, true},
		{"price = 30", 50, 100, true},
		{"price = 75", 50, 100, false},
		{"price != 30", 50, 100, false},              // != never excludes
		{"price < 10 and qty > 2", 50, 100, true},    // one conjunct suffices
		{"price < 10 or price > 200", 50, 100, true}, // both disjuncts excluded
		{"price < 10 or price > 60", 50, 100, false}, // one disjunct may match
		{"name contains 'x'", 50, 100, false},        // unknown form
		{"qty < 1", 50, 100, false},                  // different field
		{"price > ' 1000'", 10, 50, true},            // select reads the padded literal as 1000
		{"price > 'NaN'", 10, 50, false},             // NaN is text to select: nothing to prune by
	}
	for _, c := range cases {
		root := algebra.Display(algebra.Select(algebra.MustParsePredicate(c.pred),
			algebra.Union(histURL("a:1", c.lo, c.hi), algebra.URL("b:1", ""))))
		n := PruneByStats(root)
		want := 0
		if c.prune {
			want = 1
		}
		if n != want {
			t.Errorf("pred %q over [%g,%g]: pruned %d, want %d", c.pred, c.lo, c.hi, n, want)
		}
	}
}

func TestPruneByStatsCollapse(t *testing.T) {
	// All branches provably empty: the selection collapses to empty data.
	sel := algebra.Select(algebra.MustParsePredicate("price < 10"),
		algebra.Union(histURL("a:1", 50, 100), histURL("b:1", 20, 40)))
	root := algebra.Display(sel)
	if n := PruneByStats(root); n != 2 {
		t.Fatalf("pruned = %d", n)
	}
	if sel.Children[0].Kind != algebra.KindData || len(sel.Children[0].Docs) != 0 {
		t.Fatalf("collapsed shape = %s", sel.Children[0])
	}

	// One survivor: union unwrapped.
	sel2 := algebra.Select(algebra.MustParsePredicate("price < 30"),
		algebra.Union(histURL("a:1", 50, 100), histURL("b:1", 20, 40)))
	root2 := algebra.Display(sel2)
	if n := PruneByStats(root2); n != 1 {
		t.Fatalf("pruned = %d", n)
	}
	if sel2.Children[0].Kind != algebra.KindURL || sel2.Children[0].URL != "b:1" {
		t.Fatalf("survivor = %s", sel2.Children[0])
	}
}

func TestPruneByStatsKeepsUnannotated(t *testing.T) {
	sel := algebra.Select(algebra.MustParsePredicate("price < 10"),
		algebra.Union(algebra.URL("a:1", ""), algebra.URL("b:1", "")))
	root := algebra.Display(sel)
	if n := PruneByStats(root); n != 0 {
		t.Fatalf("unannotated branches must be kept, pruned %d", n)
	}
}

func TestPruneByStatsMalformedHistogramKept(t *testing.T) {
	u := algebra.URL("a:1", "")
	u.Annotate(algebra.AnnotHistogram, "garbage")
	root := algebra.Display(algebra.Select(algebra.MustParsePredicate("price < 10"), algebra.Union(u, algebra.URL("b:1", ""))))
	if n := PruneByStats(root); n != 0 {
		t.Fatalf("malformed histogram must not prune, pruned %d", n)
	}
}

// TestPruneByStatsKeepsNonNumericMatches: the select compares a price that
// is not a number as text, so an item with no price satisfies "price < 5"
// ("" < "5"), "N/A" satisfies "price > 1000", and "NaN" satisfies
// "price >= 1000" ("NaN" sorts after "1000" as text). A histogram built from
// the numeric prices alone would still prune that item's branch. The
// select's result must be the same with PruneByStats applied as without it.
func TestPruneByStatsKeepsNonNumericMatches(t *testing.T) {
	for _, odd := range []string{`<item><name>free</name></item>`, `<item><price>N/A</price></item>`, `<item><price>NaN</price></item>`} {
		items := []*xmltree.Node{
			xmltree.MustParse(`<item><price>10</price></item>`),
			xmltree.MustParse(`<item><price>20</price></item>`),
			xmltree.MustParse(odd),
		}
		s := stats.Collect(items, nil, "price")
		for _, pred := range []string{"price < 5", "price > 1000", "price >= 1000", "price = 1000"} {
			selected := func(prune bool) int {
				u := algebra.URL("a:1", "/d")
				if s.Hist != nil {
					u.Annotate(algebra.AnnotHistogram, s.Hist.Encode())
				}
				sel := algebra.Select(algebra.MustParsePredicate(pred), algebra.Union(u, algebra.URL("b:1", "/d")))
				if prune {
					PruneByStats(sel)
				}
				// Bind a:1 to the items and b:1 to nothing.
				var bind func(n *algebra.Node)
				bind = func(n *algebra.Node) {
					for i, c := range n.Children {
						switch {
						case c.Kind == algebra.KindURL && c.URL == "a:1":
							n.Children[i] = algebra.Data(items...)
						case c.Kind == algebra.KindURL:
							n.Children[i] = algebra.Data()
						default:
							bind(c)
						}
					}
				}
				bind(sel)
				out, err := engine.Evaluate(sel)
				if err != nil {
					t.Fatal(err)
				}
				return len(out)
			}
			if want, got := selected(false), selected(true); got != want {
				t.Errorf("%s over %s: %d items after pruning, %d without", pred, odd, got, want)
			}
		}
	}
}
