package route

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/xmltree"
)

func urlPlan(target string, urls ...string) *algebra.Plan {
	kids := make([]*algebra.Node, len(urls))
	for i, u := range urls {
		kids[i] = algebra.URL(u, "")
	}
	return algebra.NewPlan("q", target, algebra.Display(algebra.Union(kids...)))
}

func TestAddrOf(t *testing.T) {
	cases := map[string]string{
		"http://10.1.2.3:9020/":     "10.1.2.3:9020",
		"http://tracks:9020/data/x": "tracks:9020",
		"https://a:1/":              "a:1",
		"10.1.2.3:9020":             "10.1.2.3:9020",
		"tracks:9020/data":          "tracks:9020",
	}
	for in, want := range cases {
		if got := AddrOf(in); got != want {
			t.Errorf("AddrOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCandidatesOrderingAndDedup pins the PR 3 preference order the routing
// layer inherited from the processor: explicit route annotations first, then
// catalog routes, then URL owners; duplicates and self dropped.
func TestCandidatesOrderingAndDedup(t *testing.T) {
	urn := algebra.URN("urn:X:Y")
	urn.Annotate(catalog.AnnotRoute, "ann:1")
	self := algebra.URN("urn:X:Z")
	self.Annotate(catalog.AnnotRoute, "self:1")
	root := algebra.Display(algebra.Union(
		urn, self,
		algebra.URL("url1:1", ""),
		algebra.URL("ann:1", ""),  // dup of the annotation
		algebra.URL("self:1", ""), // self
		algebra.URL("url2:1", ""),
	))
	got := Candidates(root, "self:1", []string{"cat:1", "ann:1", "cat:2"})
	want := []string{"ann:1", "cat:1", "cat:2", "url1:1", "url2:1"}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates = %v, want %v", got, want)
		}
	}
}

func TestSelectTransferPolicy(t *testing.T) {
	p := urlPlan("t:1", "a:1", "b:1", "c:1")
	RestrictServers(p, "b:1")
	dec := Select(p, "self:1", nil)
	if dec.Reason != Forward || len(dec.Hops) != 1 || dec.Hops[0] != "b:1" {
		t.Fatalf("decision = %+v, want only the allowed hop b:1", dec)
	}
	// Policy filtering everything yields NoRoute (stuck), matching the
	// pre-routing-layer behavior — not a partial.
	RestrictServers(p, "nobody:1")
	if dec := Select(p, "self:1", nil); dec.Reason != NoRoute {
		t.Fatalf("decision = %+v, want NoRoute when the policy forbids every hop", dec)
	}
}

func TestSelectNoCandidates(t *testing.T) {
	p := algebra.NewPlan("q", "t:1", algebra.Display(algebra.URN("urn:No:Route")))
	if dec := Select(p, "self:1", nil); dec.Reason != NoRoute {
		t.Fatalf("decision = %+v, want NoRoute with no candidates at all", dec)
	}
}

// TestSelectVisitedFiltering: an unvisited candidate always survives; a
// visited one survives only when the plan has mutated since its last visit.
func TestSelectVisitedFiltering(t *testing.T) {
	p := urlPlan("t:1", "a:1", "b:1")
	markVisited(p, "a:1")

	// The plan is unchanged since a:1 saw it: forwarding there is ping-pong.
	dec := Select(p, "self:1", nil)
	if dec.Reason != Forward || len(dec.Hops) != 1 || dec.Hops[0] != "b:1" {
		t.Fatalf("decision = %+v, want b:1 only (a:1 is pure ping-pong)", dec)
	}
	if len(dec.Filtered) != 1 || dec.Filtered[0] != "a:1" {
		t.Fatalf("filtered = %v, want [a:1]", dec.Filtered)
	}

	// Mutate the plan (a new annotation): the revisit can teach a:1
	// something, so it survives again — after b:1, preference order intact.
	p.Root.Annotate("card", "7")
	dec = Select(p, "self:1", nil)
	if dec.Reason != Forward || len(dec.Hops) != 2 || dec.Hops[0] != "a:1" || dec.Hops[1] != "b:1" {
		t.Fatalf("decision = %+v, want [a:1 b:1] after mutation", dec)
	}
}

func TestSelectExhausted(t *testing.T) {
	p := urlPlan("t:1", "a:1")
	markVisited(p, "a:1")
	dec := Select(p, "self:1", nil)
	if dec.Reason != Exhausted {
		t.Fatalf("decision = %+v, want Exhausted (only candidate is pure ping-pong)", dec)
	}
}

// TestRevisitBudget: even productive revisits are bounded.
func TestRevisitBudget(t *testing.T) {
	p := urlPlan("t:1", "a:1")
	p.VisitedMemory().Budget = 2
	for visit := 1; visit <= 3; visit++ {
		markVisited(p, "a:1")
		p.Root.Annotate("card", string(rune('0'+visit))) // progress every round
	}
	// a:1 has been visited 3 times with budget 2: no fourth visit, even
	// though the plan mutated.
	if dec := Select(p, "self:1", nil); dec.Reason != Exhausted {
		t.Fatalf("decision = %+v, want Exhausted after the revisit budget is spent", dec)
	}
	// The same history under a looser budget still forwards.
	p.VisitedMemory().Budget = 5
	if dec := Select(p, "self:1", nil); dec.Reason != Forward {
		t.Fatalf("decision = %+v, want Forward with budget to spare", dec)
	}
}

// markVisited records one visit by self with the fingerprint of the plan as
// it stands, as a server does when it forwards the plan unchanged.
func markVisited(p *algebra.Plan, self string) {
	p.VisitedMemory().Mark(self, algebra.Fingerprint(p.Root))
}

func TestMarkVisited(t *testing.T) {
	p := urlPlan("t:1", "a:1")
	markVisited(p, "self:1")
	Select(p, "self:1", nil).MarkVisited(p, "self:1")
	rec, ok := p.Visited.Lookup("self:1")
	if !ok || rec.Count != 2 {
		t.Fatalf("record = %+v ok=%v, want count 2", rec, ok)
	}
	if rec.Fingerprint != algebra.Fingerprint(p.Root) {
		t.Fatal("recorded fingerprint must match the current plan state")
	}
}

func frozenItems(ss ...string) []*xmltree.Node {
	out := make([]*xmltree.Node, len(ss))
	for i, s := range ss {
		out[i] = xmltree.MustParse(s).Freeze()
	}
	return out
}

// TestPartialMonotone: a partial result evaluates the monotone fragment of
// the plan over the data in hand — selections apply, unresolved leaves are
// empty — and is flagged partial on the wire.
func TestPartialMonotone(t *testing.T) {
	data := algebra.Data(frozenItems(
		`<i><v>1</v></i>`, `<i><v>5</v></i>`, `<i><v>9</v></i>`)...)
	p := algebra.NewPlan("q", "t:1", algebra.Display(
		algebra.Select(algebra.MustParsePredicate("v < 6"),
			algebra.Union(data, algebra.URN("urn:Not:Resolved")))))
	pp := Partial(p)
	if !pp.PartialResult() {
		t.Fatal("partial plan not flagged")
	}
	items, err := pp.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("partial = %d items, want the 2 matching available ones", len(items))
	}
	// The flag survives the wire round trip.
	rt, err := algebra.Unmarshal(algebra.Marshal(pp))
	if err != nil {
		t.Fatal(err)
	}
	if !rt.PartialResult() {
		t.Fatal("partial flag lost on the wire")
	}
}

// TestPartialNonMonotone: difference and count must not be evaluated over
// partial inputs (they could overstate the answer) — unless fully evaluable,
// they contribute nothing.
func TestPartialNonMonotone(t *testing.T) {
	data := algebra.Data(frozenItems(`<i><v>1</v></i>`)...)
	diff := algebra.NewPlan("q", "t:1", algebra.Display(
		algebra.Difference(data, algebra.URN("urn:Not:Resolved"))))
	items, err := Partial(diff).Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Fatalf("difference over partial inputs must contribute nothing, got %d items", len(items))
	}

	cnt := algebra.NewPlan("q2", "t:1", algebra.Display(
		algebra.Count(algebra.Select(algebra.MustParsePredicate("v < 6"), algebra.URN("urn:X:Y")))))
	items, err = Partial(cnt).Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Fatalf("count over partial inputs must contribute nothing, got %d items", len(items))
	}
}

// TestPartialExactSubtree: a fully-evaluable subtree contributes its exact
// value even under a non-monotone operator, because it is not partial.
func TestPartialExactSubtree(t *testing.T) {
	exact := algebra.Difference(
		algebra.Data(frozenItems(`<i><v>1</v></i>`, `<i><v>2</v></i>`)...),
		algebra.Data(frozenItems(`<i><v>2</v></i>`)...))
	p := algebra.NewPlan("q", "t:1", algebra.Display(
		algebra.Union(exact, algebra.URN("urn:Not:Resolved"))))
	items, err := Partial(p).Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].InnerText() != "1" {
		t.Fatalf("exact difference subtree must contribute its value, got %v", items)
	}
}

// TestPartialCarriesContext: the partial keeps the plan's id, target,
// original query, visited memory and extra sections.
func TestPartialCarriesContext(t *testing.T) {
	p := algebra.NewPlan("q", "t:1", algebra.Display(algebra.URN("urn:X:Y")))
	p.RetainOriginal()
	markVisited(p, "s:1")
	p.Extra = map[string]*xmltree.Node{"provenance": xmltree.Elem("provenance").Freeze()}
	pp := Partial(p)
	if pp.ID != "q" || pp.Target != "t:1" {
		t.Fatalf("partial lost identity: %q -> %q", pp.ID, pp.Target)
	}
	if pp.Original == nil {
		t.Fatal("partial lost the original query")
	}
	if pp.Visited == nil || pp.Visited.Len() != 1 {
		t.Fatal("partial lost the visited memory")
	}
	if pp.Extra["provenance"] == nil {
		t.Fatal("partial lost the provenance section")
	}
}
