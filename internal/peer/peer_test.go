package peer

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/hierarchy"
	"repro/internal/namespace"
	"repro/internal/simnet"
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

func items(ss ...string) []*xmltree.Node {
	out := make([]*xmltree.Node, len(ss))
	for i, s := range ss {
		out[i] = xmltree.MustParse(s)
	}
	return out
}

func mustPeer(t testing.TB, cfg Config) *Peer {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cdWorld wires the paper's running example onto a simnet: client, meta
// server, two sellers, track service.
func cdWorld(t *testing.T) (net *simnet.Network, client *Peer, ns *namespace.Namespace) {
	t.Helper()
	net = simnet.New()
	ns = testNS()
	pdxCDs := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")

	client = mustPeer(t, Config{Addr: "client:9020", Net: net, NS: ns, Key: []byte("kC")})
	meta := mustPeer(t, Config{Addr: "M:9020", Net: net, NS: ns, PushSelect: true, Key: []byte("kM"),
		Area: ns.MustParseArea("[USA, *]"), Authoritative: true})
	s1 := mustPeer(t, Config{Addr: "s1:9020", Net: net, NS: ns, PushSelect: true, Key: []byte("k1"), Area: pdxCDs})
	s2 := mustPeer(t, Config{Addr: "s2:9020", Net: net, NS: ns, PushSelect: true, Key: []byte("k2"), Area: pdxCDs})
	tr := mustPeer(t, Config{Addr: "tracks:9020", Net: net, NS: ns, PushSelect: true, Key: []byte("kT")})

	s1.AddCollection(Collection{Name: "cds", PathExp: "/data[id=1]", Area: pdxCDs, Items: items(
		`<sale><cd>Blue Train</cd><price>8</price></sale>`,
		`<sale><cd>Kind of Blue</cd><price>15</price></sale>`,
	)})
	s2.AddCollection(Collection{Name: "cds", PathExp: "/data[id=2]", Area: pdxCDs, Items: items(
		`<sale><cd>Giant Steps</cd><price>9</price></sale>`,
	)})
	tr.AddCollection(Collection{Name: "listings", PathExp: "/data[id=9]", Items: items(
		`<listing><cd>Blue Train</cd><song>Locomotion</song></listing>`,
		`<listing><cd>Giant Steps</cd><song>Naima</song></listing>`,
		`<listing><cd>Kind of Blue</cd><song>So What</song></listing>`,
	)})

	// Sellers push registrations to the authoritative meta server (§3.3).
	if err := s1.RegisterWith("M:9020", catalog.RoleBase); err != nil {
		t.Fatal(err)
	}
	if err := s2.RegisterWith("M:9020", catalog.RoleBase); err != nil {
		t.Fatal(err)
	}
	// The track service is addressed by an opaque URN alias at M.
	meta.Catalog().AddAlias("urn:CD:TrackListings", "http://tracks:9020/data[id=9]")
	// The ForSale URN resolves through the interest-area catalog.
	meta.Catalog().AddAlias("urn:ForSale:Portland-CDs", namespace.EncodeURN(pdxCDs))
	// The client only knows the meta server.
	if err := client.Catalog().Register(catalog.Registration{
		Addr: "M:9020", Role: catalog.RoleMetaIndex,
		Area: ns.MustParseArea("[USA, *]"), Authoritative: true,
	}); err != nil {
		t.Fatal(err)
	}
	return net, client, ns
}

func fig3Plan(target string) *algebra.Plan {
	songs := algebra.Data(items(
		`<song><title>Naima</title></song>`,
		`<song><title>So What</title></song>`,
	)...)
	forSale := algebra.Select(algebra.MustParsePredicate("price < 10"),
		algebra.URN("urn:ForSale:Portland-CDs"))
	cdJoin := algebra.JoinNamed("cd", "cd", "sale", "listing",
		forSale, algebra.URN("urn:CD:TrackListings"))
	songJoin := algebra.JoinNamed("title", "listing/song", "fav", "match", songs, cdJoin)
	p := algebra.NewPlan("fig3", target, algebra.Display(songJoin))
	p.RetainOriginal()
	return p
}

func TestNetworkedCDQuery(t *testing.T) {
	net, client, _ := cdWorld(t)
	plan := fig3Plan("client:9020")
	if err := client.Submit("M:9020", plan); err != nil {
		t.Fatal(err)
	}
	res, ok := client.TakeResult()
	if !ok {
		t.Fatal("no result delivered")
	}
	got, err := res.Plan.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Value("match/sale/cd") != "Giant Steps" {
		t.Fatalf("results = %v", got)
	}
	if res.At <= 0 || res.Hops < 4 {
		t.Fatalf("result metadata: at=%v hops=%d", res.At, res.Hops)
	}
	m := net.Metrics()
	if m.Messages < 5 {
		t.Fatalf("metrics = %+v", m)
	}
	// Provenance shows the full itinerary.
	trail, err := QueryTrail(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, srv := range []string{"M:9020", "s1:9020", "s2:9020", "tracks:9020"} {
		if !trail.Visited(srv) {
			t.Fatalf("trail missing %s: %+v", srv, trail.Visits)
		}
	}
}

func TestRegistrationPushAndAreaQuery(t *testing.T) {
	_, client, ns := cdWorld(t)
	// Query by interest-area URN directly (no alias).
	urn := namespace.EncodeURN(ns.MustParseArea("[USA/OR/Portland, Music/CDs]"))
	plan := algebra.NewPlan("area-q", "client:9020",
		algebra.Display(algebra.Select(algebra.MustParsePredicate("price < 10"), algebra.URN(urn))))
	if err := client.Submit("M:9020", plan); err != nil {
		t.Fatal(err)
	}
	res, ok := client.TakeResult()
	if !ok {
		t.Fatal("no result")
	}
	got, _ := res.Plan.Results()
	if len(got) != 2 { // Blue Train $8 and Giant Steps $9
		t.Fatalf("results = %d", len(got))
	}
}

func TestClientRoutesViaMetaIndex(t *testing.T) {
	// Submitting to the client itself: its catalog has no bases, only the
	// meta-index route, so the plan must travel client → M → sellers.
	_, client, ns := cdWorld(t)
	urn := namespace.EncodeURN(ns.MustParseArea("[USA/OR/Portland, Music/CDs]"))
	plan := algebra.NewPlan("self-q", "client:9020",
		algebra.Display(algebra.Count(algebra.URN(urn))))
	if err := client.Submit("client:9020", plan); err != nil {
		t.Fatal(err)
	}
	res, ok := client.TakeResult()
	if !ok {
		t.Fatal("no result")
	}
	got, _ := res.Plan.Results()
	if len(got) != 1 || got[0].InnerText() != "3" {
		t.Fatalf("count = %v", got)
	}
}

// TestSubmitClockStartsAtZero pins a submission's clock: a plan leaves at
// virtual time zero, however far this peer's own clock has moved. The client
// submits the Fig. 3 plan to itself twice, processing the first before the
// second goes out, and both results must arrive at the same time.
func TestSubmitClockStartsAtZero(t *testing.T) {
	_, client, _ := cdWorld(t)
	var at [2]time.Duration
	for i := range at {
		if err := client.Submit(client.Addr(), fig3Plan(client.Addr())); err != nil {
			t.Fatal(err)
		}
		res, ok := client.TakeResult()
		if !ok {
			t.Fatalf("submission %d: no result", i)
		}
		at[i] = res.At
		if client.virtualNow() == 0 {
			t.Fatalf("submission %d: the client processed no plan, so its clock proves nothing", i)
		}
	}
	if at[0] != at[1] {
		t.Fatalf("results at %v and %v: the second submission left on the client's clock, not at zero", at[0], at[1])
	}
}

func TestHarvestPull(t *testing.T) {
	net := simnet.New()
	ns := testNS()
	area := ns.MustParseArea("[USA/OR/Portland, *]")
	base := mustPeer(t, Config{Addr: "b:1", Net: net, NS: ns, Area: area})
	base.AddCollection(Collection{Name: "stuff", PathExp: "/data[id=7]", Area: area,
		Items: items(`<i><v>1</v></i>`)})
	idx := mustPeer(t, Config{Addr: "i:1", Net: net, NS: ns, Area: area})
	if err := idx.Harvest("b:1"); err != nil {
		t.Fatal(err)
	}
	regs := idx.Catalog().Registrations()
	if len(regs) != 1 || regs[0].Addr != "b:1" || len(regs[0].Collections) != 1 {
		t.Fatalf("harvested = %+v", regs)
	}
}

func TestReplicationWithStaleness(t *testing.T) {
	net := simnet.New()
	ns := testNS()
	area := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
	src := mustPeer(t, Config{Addr: "s:1", Net: net, NS: ns, Area: area})
	src.AddCollection(Collection{Name: "cds", PathExp: "/d", Area: area,
		Items: items(`<sale><cd>A</cd><price>5</price></sale>`)})
	rep := mustPeer(t, Config{Addr: "r:1", Net: net, NS: ns, Area: area})
	if err := rep.ReplicateFrom("s:1", "/d", Collection{Name: "cds", PathExp: "/d", Area: area}, 30); err != nil {
		t.Fatal(err)
	}
	c, ok := rep.Collection("/d")
	if !ok || len(c.Items) != 1 || c.StalenessMin != 30 {
		t.Fatalf("replica = %+v ok=%v", c, ok)
	}
	// Source gains an item; replica is stale until refreshed.
	if err := src.SetItems("/d", items(
		`<sale><cd>A</cd><price>5</price></sale>`,
		`<sale><cd>B</cd><price>6</price></sale>`,
	)); err != nil {
		t.Fatal(err)
	}
	c, _ = rep.Collection("/d")
	if len(c.Items) != 1 {
		t.Fatal("replica must remain stale until re-sync")
	}
	if err := rep.ReplicateFrom("s:1", "/d", Collection{Name: "cds", PathExp: "/d", Area: area}, 30); err != nil {
		t.Fatal(err)
	}
	c, _ = rep.Collection("/d")
	if len(c.Items) != 2 {
		t.Fatal("refresh must pick up new items")
	}
}

func TestStalenessReachesProvenance(t *testing.T) {
	net := simnet.New()
	ns := testNS()
	area := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
	client := mustPeer(t, Config{Addr: "c:1", Net: net, NS: ns, Key: []byte("kc")})
	rep := mustPeer(t, Config{Addr: "r:1", Net: net, NS: ns, Area: area, Key: []byte("kr")})
	rep.AddCollection(Collection{Name: "cds", PathExp: "/d", Area: area, StalenessMin: 30,
		Items: items(`<sale><cd>A</cd><price>5</price></sale>`)})
	if err := rep.RegisterWith("c:1", catalog.RoleBase); err != nil {
		t.Fatal(err)
	}
	urn := namespace.EncodeURN(area)
	plan := algebra.NewPlan("q", "c:1", algebra.Display(algebra.Count(algebra.URN(urn))))
	if err := client.Submit("c:1", plan); err != nil {
		t.Fatal(err)
	}
	res, ok := client.TakeResult()
	if !ok {
		t.Fatal("no result")
	}
	trail, err := QueryTrail(res)
	if err != nil {
		t.Fatal(err)
	}
	if trail.MaxStaleness() != 30 {
		t.Fatalf("staleness = %d, want 30", trail.MaxStaleness())
	}
}

func TestCategoryServerRole(t *testing.T) {
	net := simnet.New()
	ns := testNS()
	hs := hierarchy.New("Location")
	hs.MustAdd("USA/OR/Portland")
	hs.MustAdd("USA/WA/Seattle")
	catSrv := hierarchy.NewServer(hs)
	server := mustPeer(t, Config{Addr: "cat:1", Net: net, NS: ns, CategoryServer: catSrv})
	_ = server
	client := mustPeer(t, Config{Addr: "c:1", Net: net, NS: ns})
	kids, err := client.SubcategoriesOf("cat:1", "Location", hierarchy.MustParsePath("USA"))
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 || kids[0].String() != "USA/OR" {
		t.Fatalf("subcats = %v", kids)
	}
	// Non-category peers refuse.
	if _, err := client.SubcategoriesOf("c:1", "Location", hierarchy.Top); err == nil {
		t.Fatal("non-category server must refuse subcats")
	}
}

func TestStuckPlanSurfacesError(t *testing.T) {
	net := simnet.New()
	ns := testNS()
	client := mustPeer(t, Config{Addr: "c:1", Net: net, NS: ns})
	lonely := mustPeer(t, Config{Addr: "l:1", Net: net, NS: ns})
	plan := algebra.NewPlan("q", "c:1", algebra.Display(algebra.URN("urn:No:Such")))
	err := client.Submit("l:1", plan)
	if err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("want stuck error, got %v", err)
	}
	if len(lonely.StuckErrors()) != 1 {
		t.Fatal("stuck error not recorded")
	}
}

func TestPeerValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config must error")
	}
	net := simnet.New()
	if _, err := New(Config{Addr: "a:1", Net: net}); err == nil {
		t.Fatal("missing NS must error")
	}
}

func TestUnknownKinds(t *testing.T) {
	net := simnet.New()
	ns := testNS()
	p := mustPeer(t, Config{Addr: "p:1", Net: net, NS: ns})
	if err := p.Deliver(net, &simnet.Message{Kind: "bogus"}); err == nil {
		t.Fatal("unknown deliver kind must error")
	}
	if _, err := p.Serve(net, &simnet.Message{Kind: "bogus", Body: xmltree.Elem("x")}); err == nil {
		t.Fatal("unknown serve kind must error")
	}
}

func TestFetchUnknownCollection(t *testing.T) {
	net := simnet.New()
	ns := testNS()
	mustPeer(t, Config{Addr: "p:1", Net: net, NS: ns})
	q := mustPeer(t, Config{Addr: "q:1", Net: net, NS: ns})
	if err := q.ReplicateFrom("p:1", "/nope", Collection{Name: "x", PathExp: "/nope", Area: ns.MustParseArea("[USA, *]")}, 0); err == nil {
		t.Fatal("fetch of unknown collection must error")
	}
}

func TestManyPeersManyQueries(t *testing.T) {
	// A slightly larger smoke test: 10 sellers, one meta, 10 queries.
	net := simnet.New()
	ns := testNS()
	pdx := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
	client := mustPeer(t, Config{Addr: "c:1", Net: net, NS: ns})
	meta := mustPeer(t, Config{Addr: "m:1", Net: net, NS: ns, Area: ns.MustParseArea("[USA, *]"), Authoritative: true})
	_ = meta
	for i := 0; i < 10; i++ {
		addr := fmt.Sprintf("s%d:1", i)
		s := mustPeer(t, Config{Addr: addr, Net: net, NS: ns, Area: pdx, PushSelect: true})
		s.AddCollection(Collection{Name: "cds", PathExp: "/d", Area: pdx, Items: items(
			fmt.Sprintf(`<sale><cd>CD%d</cd><price>%d</price></sale>`, i, 5+i),
		)})
		if err := s.RegisterWith("m:1", catalog.RoleBase); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Catalog().Register(catalog.Registration{
		Addr: "m:1", Role: catalog.RoleMetaIndex, Area: ns.MustParseArea("[USA, *]"), Authoritative: true,
	}); err != nil {
		t.Fatal(err)
	}
	urn := namespace.EncodeURN(pdx)
	for q := 0; q < 10; q++ {
		plan := algebra.NewPlan(fmt.Sprintf("q%d", q), "c:1",
			algebra.Display(algebra.Count(algebra.URN(urn))))
		if err := client.Submit("c:1", plan); err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
	}
	results := client.Results()
	if len(results) != 10 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		got, err := r.Plan.Results()
		if err != nil || got[0].InnerText() != "10" {
			t.Fatalf("count = %v %v", got, err)
		}
	}
}
