package experiments

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/workload"
	"repro/internal/world"
	"repro/internal/xmltree"
)

func items(ss ...string) []*xmltree.Node {
	out := make([]*xmltree.Node, len(ss))
	for i, s := range ss {
		out[i] = xmltree.MustParse(s)
	}
	return out
}

// cdWorld wires the paper's running example (Figs. 3 and 4) onto a simnet.
func cdWorld() (*world.World, *peer.Peer) {
	ns := workload.GarageSaleNamespace()
	w := world.New(ns)
	pdxCDs := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
	usa := ns.MustParseArea("[USA, *]")

	client := w.Peer(peer.Config{Addr: "client:9020", Key: []byte("kC")})
	meta := w.Peer(peer.Config{Addr: "M:9020", PushSelect: true,
		Key: []byte("kM"), Area: usa, Authoritative: true})
	sales1, listings := workload.CDCatalog(11, 20)
	sales2, _ := workload.CDCatalog(23, 10)
	w.Peer(peer.Config{Addr: "tracks:9020", PushSelect: true, Key: []byte("kT")}).
		AddCollection(peer.Collection{Name: "listings", PathExp: "/data[id=9]", Items: listings})
	w.Base(peer.Config{Addr: "10.1.2.3:9020", PushSelect: true, Key: []byte("k1"), Area: pdxCDs},
		peer.Collection{Name: "cds", PathExp: "/data[id=1]", Area: pdxCDs, Items: sales1}, "M:9020")
	w.Base(peer.Config{Addr: "10.2.3.4:9020", PushSelect: true, Key: []byte("k2"), Area: pdxCDs},
		peer.Collection{Name: "cds", PathExp: "/data[id=2]", Area: pdxCDs, Items: sales2}, "M:9020")
	meta.Catalog().AddAlias("urn:CD:TrackListings", "http://tracks:9020/data[id=9]")
	meta.Catalog().AddAlias("urn:ForSale:Portland-CDs", namespace.EncodeURN(pdxCDs))
	w.Knows(client, "M:9020", usa)
	return w, client
}

func fig3Plan(target string, favorites []*xmltree.Node) *algebra.Plan {
	forSale := algebra.Select(algebra.MustParsePredicate("price < 10"),
		algebra.URN("urn:ForSale:Portland-CDs"))
	cdJoin := algebra.JoinNamed("cd", "cd", "sale", "listing",
		forSale, algebra.URN("urn:CD:TrackListings"))
	songJoin := algebra.JoinNamed("title", "listing/song", "fav", "match",
		algebra.Data(favorites...), cdJoin)
	p := algebra.NewPlan("fig3", target, algebra.Display(songJoin))
	p.RetainOriginal()
	return p
}

// E1Fig34 runs the paper's Figures 3–4 CD query end to end and reports the
// mutation trace: which server did what, in order, with plan wire sizes.
func E1Fig34() (*Table, error) {
	w, client := cdWorld()
	// Favorites reference tracks of CDs that are actually under $10 in the
	// generated catalog, so the Fig. 3 query has a nonempty answer.
	sales1, _ := workload.CDCatalog(11, 20)
	var favorites []*xmltree.Node
	for _, s := range sales1 {
		if price, err := s.Int("price"); err == nil && price < 10 {
			favorites = append(favorites,
				xmltree.Elem("song", xmltree.ElemText("title", "Track 1 of "+s.Value("cd"))))
		}
		if len(favorites) == 2 {
			break
		}
	}
	if len(favorites) == 0 {
		return nil, fmt.Errorf("E1: generated catalog has no cheap CDs")
	}
	plan := fig3Plan("client:9020", favorites)
	startBytes := algebra.WireSize(plan)
	res, results := w.Ask(client, "M:9020", plan)
	if err := w.Err(); err != nil {
		return nil, err
	}
	trail, err := peer.QueryTrail(res)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "E1",
		Title:   "Fig. 3+4 CD query: mutation trace (server, action, resource)",
		Columns: []string{"step", "server", "action", "resource"},
	}
	for i, v := range trail.Visits {
		t.AddRow(i+1, v.Server, string(v.Action), v.Detail)
	}
	m := w.Net.Metrics()
	t.Note("initial plan %d B; final result plan %d B; network: %d msgs, %d B; latency %v; results %d",
		startBytes, algebra.WireSize(res.Plan), m.Messages, m.Bytes, res.At, len(results))
	t.Note("paper Fig. 4(a): URN bound to union of two seller URLs with select pushed through; Fig. 4(b): per-seller reduction to constant XML — both visible as bind/optimize then data/reduce steps above")
	if len(results) == 0 {
		return nil, fmt.Errorf("E1: expected nonempty result")
	}
	return t, nil
}

// E2GeneRouting reproduces Fig. 1: three research groups with interest
// areas over Organism × CellType; a query about mammalian cardiac-muscle
// cells must route to the rodent and human groups and skip the fly group.
func E2GeneRouting() (*Table, error) {
	ns := workload.GeneNamespace()
	w := world.New(ns)
	groups := workload.Fig1Groups(ns)
	everything := ns.MustParseArea("[*, *]")

	w.Peer(peer.Config{Addr: "nih:9020", PushSelect: true,
		Area: everything, Authoritative: true, Key: []byte("kN")})
	for i, g := range groups {
		w.Base(peer.Config{Addr: g.Addr, PushSelect: true, Area: g.Area, Key: []byte(fmt.Sprintf("k%d", i))},
			peer.Collection{Name: g.Name, PathExp: "/miame", Area: g.Area,
				Items: workload.ExpressionData(ns, g, int64(100+i), 30)}, "nih:9020")
	}
	client := w.Peer(peer.Config{Addr: "client:9020", Key: []byte("kC")})
	w.Knows(client, "nih:9020", everything)

	query := ns.MustParseArea("[Coelomata/Deuterostomia/Mammalia, Muscle/Cardiac]")
	// Routing is by interest-area overlap; the query's own predicate does
	// the fine-grained filtering within each contacted repository.
	pred := algebra.And{
		L: algebra.Cmp{Path: "organism", Op: algebra.OpContains, Value: "Mammalia"},
		R: algebra.Cmp{Path: "celltype", Op: algebra.OpContains, Value: "Muscle/Cardiac"},
	}
	plan := algebra.NewPlan("fig1", "client:9020",
		algebra.Display(algebra.Select(pred, algebra.URN(namespace.EncodeURN(query)))))
	plan.RetainOriginal()
	res, results := w.Ask(client, "nih:9020", plan)
	if err := w.Err(); err != nil {
		return nil, err
	}
	trail, err := peer.QueryTrail(res)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "E2",
		Title:   "Fig. 1 gene-expression routing: which groups a mammalian-cardiac query visits",
		Columns: []string{"group", "interest area", "overlaps query", "visited"},
	}
	for _, g := range groups {
		t.AddRow(g.Name, g.Area.String(), g.Area.Overlaps(query), trail.Visited(g.Addr))
	}
	for _, g := range groups {
		wantVisit := g.Area.Overlaps(query)
		if trail.Visited(g.Addr) != wantVisit {
			return nil, fmt.Errorf("E2: group %s visited=%v, want %v", g.Name, trail.Visited(g.Addr), wantVisit)
		}
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("E2: expected cardiac-muscle results")
	}
	// Every returned experiment is genuinely cardiac-muscle mammalian data.
	for _, e := range results {
		if got := e.Value("celltype"); len(got) < 13 || got[:13] != "Muscle/Cardia" {
			return nil, fmt.Errorf("E2: off-area result %s", got)
		}
	}
	t.Note("results returned: %d cardiac-muscle experiments; fly lab never contacted (paper: \"can ignore the first site (where it surely will not [find data])\")", len(results))
	return t, nil
}

// E3CoverOverlap reproduces the relations depicted in Fig. 5: interest
// areas (a) Vancouver+Portland furniture and (b) everything in Portland,
// tested with representative queries.
func E3CoverOverlap() (*Table, error) {
	ns := workload.GarageSaleNamespace()
	a := ns.MustParseArea("[USA/WA/Vancouver, Furniture] + [USA/OR/Portland, Furniture]")
	b := ns.MustParseArea("[USA/OR/Portland, *]")
	probes := []struct {
		name string
		area namespace.Area
	}{
		{"[Portland, Furniture/Chairs]", ns.MustParseArea("[USA/OR/Portland, Furniture/Chairs]")},
		{"[Portland, Music/CDs]", ns.MustParseArea("[USA/OR/Portland, Music/CDs]")},
		{"[Vancouver, Furniture/Tables]", ns.MustParseArea("[USA/WA/Vancouver, Furniture/Tables]")},
		{"[Seattle, Electronics/TV]", ns.MustParseArea("[USA/WA/Seattle, Electronics/TV]")},
		{"[USA, Furniture]", ns.MustParseArea("[USA, Furniture]")},
	}
	t := &Table{
		ID:      "E3",
		Title:   "Fig. 5 areas: (a)=Vancouver+Portland furniture, (b)=Portland everything",
		Columns: []string{"query", "a covers", "a overlaps", "b covers", "b overlaps"},
	}
	for _, p := range probes {
		t.AddRow(p.name, a.Covers(p.area), a.Overlaps(p.area), b.Covers(p.area), b.Overlaps(p.area))
	}
	t.AddRow("(b) itself", a.Covers(b), a.Overlaps(b), true, true)
	t.AddRow("(a) itself", true, true, b.Covers(a), b.Overlaps(a))
	inter := a.Intersect(b)
	t.Note("a ∩ b = %s (exactly Portland furniture, as drawn)", inter.String())

	// Invariant checks for the harness.
	if !a.Overlaps(b) || a.Covers(b) || b.Covers(a) {
		return nil, fmt.Errorf("E3: Fig. 5 relations violated")
	}
	want := ns.MustParseArea("[USA/OR/Portland, Furniture]")
	if !inter.Equal(want) {
		return nil, fmt.Errorf("E3: intersection = %v", inter)
	}
	return t, nil
}
