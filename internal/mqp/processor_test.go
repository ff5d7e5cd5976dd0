package mqp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/hierarchy"
	"repro/internal/namespace"
	"repro/internal/provenance"
	"repro/internal/xmltree"
)

func testNS() *namespace.Namespace {
	loc := hierarchy.New("Location")
	loc.MustAdd("USA/OR/Portland")
	loc.MustAdd("USA/WA/Seattle")
	merch := hierarchy.New("Merchandise")
	merch.MustAdd("Music/CDs")
	merch.MustAdd("Furniture/Chairs")
	return namespace.MustNew(loc, merch)
}

// store is a trivial per-server data store for FetchLocal.
type store map[string][]*xmltree.Node

func (s store) fetch(_ *StepContext, _ string, pathExp string) ([]*xmltree.Node, int, error) {
	items, ok := s[pathExp]
	if !ok {
		return nil, 0, fmt.Errorf("no collection %q", pathExp)
	}
	return items, 0, nil
}

func items(ss ...string) []*xmltree.Node {
	out := make([]*xmltree.Node, len(ss))
	for i, s := range ss {
		out[i] = xmltree.MustParse(s)
	}
	return out
}

// TestNewRefusesUnpackableSelf: Self is the only name a processor marks in a
// plan's visited memory, whose packed wire form splits records on ';' and
// fields on Unicode space, so New refuses a Self holding either, or none.
func TestNewRefusesUnpackableSelf(t *testing.T) {
	cat := catalog.New(testNS(), "s:1")
	for _, self := range []string{"", "weird host;name", "tab\thost:1", "nb\u00a0sp:1", "nl\nhost:1"} {
		if _, err := New(Config{Self: self, Catalog: cat}); err == nil {
			t.Errorf("New accepted Self %q", self)
		}
	}
	if _, err := New(Config{Self: "s:1", Catalog: cat}); err != nil {
		t.Fatal(err)
	}
}

func mustProc(t *testing.T, cfg Config) *Processor {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fig34World assembles the paper's running example: a meta-index server M,
// two CD sellers, and a track-listing service.
func fig34World(t *testing.T) (m, s1, s2, tr *Processor) {
	t.Helper()
	ns := testNS()

	mCat := catalog.New(ns, "M:9020")
	mCat.AddAlias("urn:ForSale:Portland-CDs", "http://10.1.2.3:9020/", "http://10.2.3.4:9020/")
	mCat.AddAlias("urn:CD:TrackListings", "http://tracks:9020/")

	s1Store := store{"": items(
		`<sale><cd>Blue Train</cd><price>8</price></sale>`,
		`<sale><cd>Kind of Blue</cd><price>15</price></sale>`,
	)}
	s2Store := store{"": items(
		`<sale><cd>Giant Steps</cd><price>9</price></sale>`,
	)}
	trStore := store{"": items(
		`<listing><cd>Blue Train</cd><song>Locomotion</song></listing>`,
		`<listing><cd>Giant Steps</cd><song>Naima</song></listing>`,
		`<listing><cd>Kind of Blue</cd><song>So What</song></listing>`,
	)}

	m = mustProc(t, Config{Self: "M:9020", Catalog: mCat, PushSelect: true, Key: []byte("kM")})
	s1 = mustProc(t, Config{Self: "10.1.2.3:9020", Catalog: catalog.New(ns, "10.1.2.3:9020"),
		FetchLocal: s1Store.fetch, PushSelect: true, Key: []byte("k1")})
	s2 = mustProc(t, Config{Self: "10.2.3.4:9020", Catalog: catalog.New(ns, "10.2.3.4:9020"),
		FetchLocal: s2Store.fetch, PushSelect: true, Key: []byte("k2")})
	tr = mustProc(t, Config{Self: "tracks:9020", Catalog: catalog.New(ns, "tracks:9020"),
		FetchLocal: trStore.fetch, PushSelect: true, Key: []byte("kT")})
	return m, s1, s2, tr
}

func fig3Plan() *algebra.Plan {
	songs := algebra.Data(items(
		`<song><title>Naima</title></song>`,
		`<song><title>So What</title></song>`,
	)...)
	forSale := algebra.Select(algebra.MustParsePredicate("price < 10"),
		algebra.URN("urn:ForSale:Portland-CDs"))
	cdJoin := algebra.JoinNamed("cd", "cd", "sale", "listing",
		forSale, algebra.URN("urn:CD:TrackListings"))
	songJoin := algebra.JoinNamed("title", "listing/song", "fav", "match", songs, cdJoin)
	p := algebra.NewPlan("fig3", "129.95.50.105:9020", algebra.Display(songJoin))
	p.RetainOriginal()
	return p
}

// TestFig34EndToEnd walks the paper's Figures 3 and 4: URN resolution with
// select push-through at the meta server, per-seller reduction, and final
// evaluation, ending with the one CD that is under $10 and carries a
// favorite song.
func TestFig34EndToEnd(t *testing.T) {
	m, s1, s2, tr := fig34World(t)
	plan := fig3Plan()

	// Step 1 (Fig. 4a): M binds both URNs and pushes the select through the
	// resulting union.
	out, err := m.Step(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.Done || out.Bound != 2 {
		t.Fatalf("M outcome = %+v", out)
	}
	if out.NextHop != "10.1.2.3:9020" {
		t.Fatalf("next hop = %s", out.NextHop)
	}
	// The select must now sit below the union (pushed to each seller).
	var unionNode *algebra.Node
	plan.Root.Walk(func(n *algebra.Node) bool {
		if n.Kind == algebra.KindUnion {
			unionNode = n
		}
		return true
	})
	if unionNode == nil || len(unionNode.Children) != 2 {
		t.Fatalf("expected binary union after binding, plan = %s", plan.Root)
	}
	for _, c := range unionNode.Children {
		if c.Kind != algebra.KindSelect || c.Children[0].Kind != algebra.KindURL {
			t.Fatalf("select not pushed: %s", c)
		}
	}

	// Serialize/deserialize between hops, as the real system would.
	hop := func(p *algebra.Plan) *algebra.Plan {
		q, err := algebra.DecodeString(algebra.EncodeString(p))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	// Step 2 (Fig. 4b): seller 1 substitutes its data and reduces its
	// branch to a constant.
	plan = hop(plan)
	out, err = s1.Step(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.Fetched != 1 || out.Reduced < 1 {
		t.Fatalf("s1 outcome = %+v", out)
	}
	if out.NextHop != "10.2.3.4:9020" {
		t.Fatalf("s1 next hop = %s", out.NextHop)
	}

	plan = hop(plan)
	out, err = s2.Step(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.NextHop != "tracks:9020" {
		t.Fatalf("s2 next hop = %s", out.NextHop)
	}

	plan = hop(plan)
	out, err = tr.Step(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Done {
		t.Fatalf("tracks outcome = %+v, plan = %s", out, plan.Root)
	}
	results, err := plan.Results()
	if err != nil {
		t.Fatal(err)
	}
	// Favorites: Naima (Giant Steps, $9 — qualifies), So What (Kind of
	// Blue, $15 — too expensive). Blue Train ($8) has no favorite song.
	if len(results) != 1 {
		t.Fatalf("results = %d: %v", len(results), results)
	}
	if got := results[0].Value("match/sale/cd"); got != "Giant Steps" {
		t.Fatalf("result CD = %q", got)
	}

	// Provenance: every server signed its visits, in order.
	trail, err := provenance.FromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string][]byte{"M:9020": []byte("kM"), "10.1.2.3:9020": []byte("k1"),
		"10.2.3.4:9020": []byte("k2"), "tracks:9020": []byte("kT")}
	if idx, err := trail.Verify(func(s string) []byte { return keys[s] }); err != nil {
		t.Fatalf("provenance verify: visit %d: %v", idx, err)
	}
	for _, srv := range []string{"M:9020", "10.1.2.3:9020", "10.2.3.4:9020", "tracks:9020"} {
		if !trail.Visited(srv) {
			t.Fatalf("provenance missing %s", srv)
		}
	}
	if len(provenance.SuspectMissingSource(plan, trail)) != 0 {
		t.Fatal("no suspects expected for honest evaluation")
	}
}

func TestStuckPlan(t *testing.T) {
	ns := testNS()
	p := mustProc(t, Config{Self: "lonely:1", Catalog: catalog.New(ns, "lonely:1")})
	plan := algebra.NewPlan("q", "t:1", algebra.Display(algebra.URN("urn:Nobody:Knows")))
	if _, err := p.Step(plan); err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("want stuck error, got %v", err)
	}
}

func TestInvalidPlanRejected(t *testing.T) {
	ns := testNS()
	p := mustProc(t, Config{Self: "s:1", Catalog: catalog.New(ns, "s:1")})
	plan := algebra.NewPlan("q", "", algebra.Display(algebra.Data()))
	if _, err := p.Step(plan); err == nil {
		t.Fatal("plan without target must be rejected")
	}
}

func TestRouteAnnotationForwarding(t *testing.T) {
	ns := testNS()
	p := mustProc(t, Config{Self: "s:1", Catalog: catalog.New(ns, "s:1")})
	urn := algebra.URN("urn:InterestArea:(USA.OR.Portland,Music.CDs)")
	urn.Annotate(catalog.AnnotRoute, "idx:9020")
	plan := algebra.NewPlan("q", "t:1", algebra.Display(urn))
	out, err := p.Step(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.NextHop != "idx:9020" {
		t.Fatalf("next hop = %q, want route annotation target", out.NextHop)
	}
}

func TestCatalogRouteForwarding(t *testing.T) {
	ns := testNS()
	cat := catalog.New(ns, "s:1")
	if err := cat.Register(catalog.Registration{
		Addr: "meta:1", Role: catalog.RoleMetaIndex,
		Area: ns.MustParseArea("[USA, *]"),
	}); err != nil {
		t.Fatal(err)
	}
	p := mustProc(t, Config{Self: "s:1", Catalog: cat})
	urn := namespace.EncodeURN(ns.MustParseArea("[USA/OR/Portland, Music/CDs]"))
	plan := algebra.NewPlan("q", "t:1", algebra.Display(algebra.URN(urn)))
	out, err := p.Step(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.NextHop != "meta:1" {
		t.Fatalf("next hop = %q", out.NextHop)
	}
}

func TestPolicyDeclineAnnotates(t *testing.T) {
	ns := testNS()
	var docs []string
	for i := 0; i < 30; i++ {
		docs = append(docs, fmt.Sprintf(`<i><v>%d</v></i>`, i))
	}
	st := store{"": items(docs...)}
	p := mustProc(t, Config{
		Self: "s:1", Catalog: catalog.New(ns, "s:1"), FetchLocal: st.fetch,
		Policy: DefaultPolicy{MaxReduceCard: 5}, Key: []byte("k"), PushSelect: true,
	})
	// A count over local data estimated above the ceiling: the select's
	// input has 30 items; estimate of select = 10 > 5, so the server
	// declines, annotates, and the plan must go elsewhere — but there is
	// nowhere to go, hence "stuck".
	plan := algebra.NewPlan("q", "t:1", algebra.Display(
		algebra.Select(algebra.MustParsePredicate("v < 100"),
			algebra.Union(algebra.URL("s:1", ""), algebra.URL("other:1", "")))))
	out, err := p.Step(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.NextHop != "other:1" {
		t.Fatalf("next hop = %q", out.NextHop)
	}
	// The local data was fetched but the big select was not fully reduced
	// into one constant — the select over the fetched data (card 30 → est
	// 10 > 5) must have been declined and annotated.
	annotated := false
	plan.Root.Walk(func(n *algebra.Node) bool {
		if n.Kind == algebra.KindSelect && n.Card() >= 0 {
			annotated = true
		}
		return true
	})
	if !annotated {
		t.Fatalf("expected declined sub-plan to carry a card annotation: %s", plan.Root)
	}
}

func TestPrefsRoundTrip(t *testing.T) {
	plan := algebra.NewPlan("q", "t:1", algebra.Display(algebra.Data()))
	SetPrefs(plan, Prefs{BudgetMS: 750, PreferCurrent: true})
	back, err := algebra.DecodeString(algebra.EncodeString(plan))
	if err != nil {
		t.Fatal(err)
	}
	prefs := GetPrefs(back)
	if prefs.BudgetMS != 750 || !prefs.PreferCurrent {
		t.Fatalf("prefs = %+v", prefs)
	}
	if got := GetPrefs(algebra.NewPlan("q", "t", algebra.Display(algebra.Data()))); got != (Prefs{}) {
		t.Fatalf("default prefs = %+v", got)
	}
}

func TestChooseOrBudget(t *testing.T) {
	pol := DefaultPolicy{HopCostMS: 100}
	stale := algebra.URL("r:1", "")
	stale.SetStaleness(30)
	current := algebra.Union(algebra.URL("r:1", ""), algebra.URL("s:1", ""))
	current.SetStaleness(0)
	alts := []*algebra.Node{stale, current}

	// Prefer current with a generous budget: the two-site alternative.
	if got := pol.ChooseOr(alts, Prefs{PreferCurrent: true, BudgetMS: 1000}); got != 1 {
		t.Fatalf("generous budget pick = %d", got)
	}
	// Prefer current with a tight budget: falls back to one site.
	if got := pol.ChooseOr(alts, Prefs{PreferCurrent: true, BudgetMS: 150}); got != 0 {
		t.Fatalf("tight budget pick = %d", got)
	}
	// No currency preference: fewest sites.
	if got := pol.ChooseOr(alts, Prefs{}); got != 0 {
		t.Fatalf("no-pref pick = %d", got)
	}
}

func TestUnavailableURLLeftForLater(t *testing.T) {
	ns := testNS()
	st := store{} // empty: fetch fails
	p := mustProc(t, Config{Self: "s:1", Catalog: catalog.New(ns, "s:1"), FetchLocal: st.fetch})
	plan := algebra.NewPlan("q", "t:1", algebra.Display(
		algebra.Union(algebra.URL("s:1", "missing"), algebra.URL("other:1", ""))))
	out, err := p.Step(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Local fetch failed; the plan should still make progress by routing to
	// the other server.
	if out.Done || out.NextHop == "" {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing self must error")
	}
	if _, err := New(Config{Self: "s:1"}); err == nil {
		t.Fatal("missing catalog must error")
	}
}

func TestForwardOnlyPolicy(t *testing.T) {
	var pol Policy = ForwardOnlyPolicy{}
	if pol.ShouldFetch("a:1", "", 1) {
		t.Fatal("forward-only policy must never fetch")
	}
	if !pol.ShouldReduce(nil, 100000) {
		t.Fatal("forward-only policy still reduces locally")
	}
}

func TestStalenessPropagatesThroughReduce(t *testing.T) {
	ns := testNS()
	stale := store{"": items(`<i><v>1</v></i>`)}
	fetch := func(sc *StepContext, addr, pathExp string) ([]*xmltree.Node, int, error) {
		it, _, err := stale.fetch(sc, addr, pathExp)
		return it, 30, err
	}
	p := mustProc(t, Config{Self: "s:1", Catalog: catalog.New(ns, "s:1"), FetchLocal: fetch})
	plan := algebra.NewPlan("q", "t:1", algebra.Display(
		algebra.Select(algebra.MustParsePredicate("v < 5"), algebra.URL("s:1", ""))))
	out, err := p.Step(plan)
	if err != nil || !out.Done {
		t.Fatalf("outcome = %+v, %v", out, err)
	}
	inner := plan.Root.Children[0]
	if inner.Staleness() != 30 {
		t.Fatalf("staleness = %d, want 30", inner.Staleness())
	}
}
