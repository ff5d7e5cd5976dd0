package experiments

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/baseline"
	"repro/internal/catalog"
	"repro/internal/hierarchy"
	"repro/internal/mqp"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/workload"
	"repro/internal/world"
	"repro/internal/xmltree"
)

// garageWorld builds the hierarchic-catalog deployment for N sellers: one
// meta-index server covering everything, one authoritative index server per
// state, sellers registered with their state's index server.
type garageWorld struct {
	*world.World
	client  *peer.Peer
	sellers []workload.Seller
}

func buildGarageWorld(n int, seed int64) (*garageWorld, error) {
	ns := workload.GarageSaleNamespace()
	sellers := workload.GarageSale(ns, workload.GarageSaleConfig{
		Seed: seed, Sellers: n, ItemsPerSeller: 6, SpecialtyZipf: 1.4,
	})
	w := &garageWorld{World: world.New(ns), sellers: sellers}
	everything := ns.MustParseArea("[*, *]")

	w.Peer(peer.Config{Addr: "meta:9020", PushSelect: true,
		Area: everything, Authoritative: true, Key: []byte("kM")})

	// One authoritative index server per state (depth-2 location prefix).
	states := map[string]string{}
	for _, s := range sellers {
		st := s.City.Truncate(2).String()
		if _, ok := states[st]; ok {
			continue
		}
		addr := "idx-" + strings.ReplaceAll(st, "/", "-") + ":9020"
		area := namespace.NewArea(namespace.NewCell(s.City.Truncate(2), hierarchy.Top))
		states[st] = addr
		w.Join(w.Peer(peer.Config{Addr: addr, PushSelect: true,
			Area: area, Authoritative: true, Key: []byte("kI")}), "meta:9020", catalog.RoleIndex)
	}

	for _, s := range sellers {
		w.Base(peer.Config{Addr: s.Addr, PushSelect: true, Area: s.Area, Key: []byte("kS")},
			peer.Collection{Name: "items", PathExp: "/data[id=0]", Area: s.Area, Items: s.Items},
			states[s.City.Truncate(2).String()])
	}

	w.client = w.Peer(peer.Config{Addr: "client:9020", Key: []byte("kC")})
	w.Knows(w.client, "meta:9020", everything)
	return w, w.Err()
}

// areaPredicate builds a predicate matching items whose city/category paths
// fall under the query area's (single-cell) coordinates.
func areaPredicate(q workload.Query) algebra.Predicate {
	cell := q.Area.Cells[0]
	var pred algebra.Predicate = algebra.True{}
	if !cell.Coords[0].IsTop() {
		pred = algebra.And{L: pred, R: algebra.Cmp{Path: "city", Op: algebra.OpContains, Value: cell.Coords[0].String()}}
	}
	if !cell.Coords[1].IsTop() {
		pred = algebra.And{L: pred, R: algebra.Cmp{Path: "category", Op: algebra.OpContains, Value: cell.Coords[1].String()}}
	}
	return pred
}

// groundTruth counts items matching the query area across all sellers.
func groundTruth(sellers []workload.Seller, q workload.Query) int {
	cell := q.Area.Cells[0]
	count := 0
	for _, s := range sellers {
		for _, it := range s.Items {
			city := hierarchy.MustParsePath(it.Value("city"))
			cat := hierarchy.MustParsePath(it.Value("category"))
			if cell.Coords[0].Covers(city) && cell.Coords[1].Covers(cat) {
				count++
			}
		}
	}
	return count
}

// E4RoutingComparison measures the §1/§3 routing claim: hierarchic catalog
// routing reaches all relevant data with far fewer messages than Gnutella
// flooding, and without the Napster central bottleneck. short drops the
// largest network size.
func E4RoutingComparison(short bool) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Query routing: hierarchic catalogs vs central index vs flooding",
		Columns: []string{"architecture", "peers", "msgs/query", "KB/query", "recall", "central-load"},
	}
	const queriesPerRun = 12
	for _, n := range scaleSizes(short, 32, 128) {
		// --- Hierarchic catalogs (this paper) ---
		w, err := buildGarageWorld(n, int64(n))
		if err != nil {
			return nil, err
		}
		queries := workload.Queries(w.NS, int64(n)*7+1, queriesPerRun, 1.4)
		w.Net.ResetMetrics()
		recallSum, answered := 0.0, 0
		for qi, q := range queries {
			truth := groundTruth(w.sellers, q)
			plan := algebra.NewPlan(fmt.Sprintf("e4-%d", qi), "client:9020",
				algebra.Display(algebra.Count(algebra.Select(areaPredicate(q),
					algebra.URN(namespace.EncodeURN(q.Area))))))
			if err := w.client.Submit("client:9020", plan); err != nil {
				return nil, fmt.Errorf("E4 hierarchic query %d: %w", qi, err)
			}
			res, ok := w.client.TakeResult()
			if !ok {
				return nil, fmt.Errorf("E4: missing result")
			}
			got, err := res.Plan.Results()
			if err != nil {
				return nil, err
			}
			// An uncoverable area now terminates as an explicit (empty)
			// partial result instead of a stuck error, so a count item may
			// be absent entirely.
			found := 0
			if len(got) > 0 {
				fmt.Sscanf(got[0].InnerText(), "%d", &found)
			}
			if truth == 0 {
				recallSum++
			} else {
				recallSum += float64(found) / float64(truth)
			}
			answered++
		}
		m := w.Net.Metrics()
		t.AddRow("hierarchic-catalog", n,
			fmt.Sprintf("%.1f", float64(m.Messages)/float64(answered)),
			fmt.Sprintf("%.1f", float64(m.Bytes)/1024/float64(answered)),
			recallSum/float64(answered), "-")

		// --- Central index (Napster) ---
		cw := world.New(w.NS)
		cnet := cw.Net
		ci := baseline.NewCentralIndex(cnet, "central:9020")
		for _, s := range w.sellers {
			cw.Peer(peer.Config{Addr: s.Addr, Area: s.Area}).
				AddCollection(peer.Collection{Name: "items", PathExp: "/data[id=0]", Area: s.Area, Items: s.Items})
			ci.Register(baseline.DataRef{Addr: s.Addr, PathExp: "/data[id=0]"}, s.Area)
		}
		cclient := cw.Peer(peer.Config{Addr: "client:9020"})
		if err := cw.Err(); err != nil {
			return nil, err
		}
		cnet.ResetMetrics()
		crecall := 0.0
		for _, q := range queries {
			truth := groundTruth(w.sellers, q)
			refs, err := baseline.Lookup(cnet, "client:9020", "central:9020", q.Area)
			if err != nil {
				return nil, err
			}
			found := 0
			pred := algebra.Prepare(areaPredicate(q))
			for _, ref := range refs {
				// Pull the collection and count matches client-side.
				items, err := fetchCollection(cnet, cclient, ref.Addr, ref.PathExp)
				if err != nil {
					return nil, err
				}
				for _, it := range items {
					if pred.Eval(it) {
						found++
					}
				}
			}
			if truth == 0 {
				crecall++
			} else {
				crecall += float64(found) / float64(truth)
			}
		}
		cm := cnet.Metrics()
		t.AddRow("central-index", n,
			fmt.Sprintf("%.1f", float64(cm.Messages)/float64(len(queries))),
			fmt.Sprintf("%.1f", float64(cm.Bytes)/1024/float64(len(queries))),
			crecall/float64(len(queries)),
			fmt.Sprintf("%d req@central", cm.Requests))

		// --- Flooding (Gnutella), horizon sweep ---
		for _, horizon := range []int{2, 4, 6} {
			fnet := simnet.New()
			fpeers := make([]*baseline.FloodPeer, len(w.sellers))
			for i, s := range w.sellers {
				fpeers[i] = baseline.NewFloodPeer(fnet, s.Addr)
				fpeers[i].AddCollection(baseline.DataRef{Addr: s.Addr, PathExp: "/data[id=0]"}, s.Area)
			}
			origin := baseline.NewFloodPeer(fnet, "client:9020")
			// Deterministic random graph: ring + 2 chords.
			all := append([]*baseline.FloodPeer{origin}, fpeers...)
			for i, p := range all {
				nn := len(all)
				p.SetNeighbors(
					all[(i+1)%nn].Addr(),
					all[(i+nn-1)%nn].Addr(),
					all[(i+nn/3)%nn].Addr(),
					all[(i+nn/2)%nn].Addr(),
				)
			}
			frecall := 0.0
			for qi, q := range queries {
				truth := groundTruth(w.sellers, q)
				refs, err := origin.Flood(fnet, fmt.Sprintf("fq-%d-%d", horizon, qi), q.Area, horizon)
				if err != nil {
					return nil, err
				}
				found := 0
				pred := algebra.Prepare(areaPredicate(q))
				for _, ref := range refs {
					for _, s := range w.sellers {
						if s.Addr != ref.Addr {
							continue
						}
						for _, it := range s.Items {
							if pred.Eval(it) {
								found++
							}
						}
					}
				}
				if truth == 0 {
					frecall++
				} else {
					frecall += float64(found) / float64(truth)
				}
			}
			fm := fnet.Metrics()
			t.AddRow(fmt.Sprintf("flooding h=%d", horizon), n,
				fmt.Sprintf("%.1f", float64(fm.Messages)/float64(len(queries))),
				fmt.Sprintf("%.1f", float64(fm.Bytes)/1024/float64(len(queries))),
				frecall/float64(len(queries)), "-")
		}
	}
	t.Note("expected shape (paper §1): flooding cost explodes with horizon yet recall stays short of 1 until the horizon spans the graph; the central index answers everything cheaply but every query loads one server; hierarchic catalogs reach recall 1.0 with per-query cost independent of N")
	return t, nil
}

func fetchCollection(net *simnet.Network, from *peer.Peer, addr, pathExp string) ([]*xmltree.Node, error) {
	req := xmltree.ElemAttrs("fetch", xmltree.Attr{Name: "path", Value: pathExp})
	reply, _, err := net.Request(&simnet.Message{From: from.Addr(), To: addr, Kind: peer.KindFetch}, req.Stage)
	if err != nil {
		return nil, err
	}
	return reply.Elements(), nil
}

// E5MQPvsCoordinator compares mutant-query-plan execution (the plan travels
// to the data, partial results ship) against coordinator-based execution
// (one site pulls all base data), across selection cutoffs — the §2
// tradeoff and the [PM02a] comparison the paper cites.
func E5MQPvsCoordinator() (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "MQP chained execution vs coordinator data-pull (3-way join)",
		Columns: []string{"mode", "price cutoff", "msgs", "KB moved", "latency", "results"},
	}
	for _, cutoff := range []int{5, 10, 25} {
		for _, mode := range []string{"mqp", "coordinator"} {
			ns := workload.GarageSaleNamespace()
			w := world.New(ns)
			pdxCDs := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
			usa := ns.MustParseArea("[USA, *]")

			var metaPolicy mqp.Policy = mqp.ForwardOnlyPolicy{}
			if mode == "coordinator" {
				metaPolicy = mqp.DefaultPolicy{}
			}
			meta := w.Peer(peer.Config{Addr: "M:9020", PushSelect: true,
				Area: usa, Authoritative: true, Policy: metaPolicy, Key: []byte("kM")})
			client := w.Peer(peer.Config{Addr: "client:9020", Key: []byte("kC")})
			sales1, listings1 := workload.CDCatalog(11, 40)
			sales2, listings2 := workload.CDCatalog(23, 40)
			w.Peer(peer.Config{Addr: "tracks:9020", PushSelect: true, Key: []byte("kT")}).
				AddCollection(peer.Collection{Name: "listings", PathExp: "/data[id=9]",
					Items: append(listings1, listings2...)})
			w.Base(peer.Config{Addr: "s1:9020", PushSelect: true, Area: pdxCDs, Key: []byte("k")},
				peer.Collection{Name: "cds", PathExp: "/data[id=1]", Area: pdxCDs, Items: sales1}, "M:9020")
			w.Base(peer.Config{Addr: "s2:9020", PushSelect: true, Area: pdxCDs, Key: []byte("k")},
				peer.Collection{Name: "cds", PathExp: "/data[id=2]", Area: pdxCDs, Items: sales2}, "M:9020")
			meta.Catalog().AddAlias("urn:CD:TrackListings", "http://tracks:9020/data[id=9]")
			w.Knows(client, "M:9020", usa)

			forSale := algebra.Select(algebra.MustParsePredicate(fmt.Sprintf("price < %d", cutoff)),
				algebra.URN(namespace.EncodeURN(pdxCDs)))
			join := algebra.JoinNamed("cd", "cd", "sale", "listing",
				forSale, algebra.URN("urn:CD:TrackListings"))
			plan := algebra.NewPlan(fmt.Sprintf("e5-%s-%d", mode, cutoff), "client:9020",
				algebra.Display(join))
			plan.RetainOriginal()
			w.Net.ResetMetrics()
			res, results := w.Ask(client, "M:9020", plan)
			if err := w.Err(); err != nil {
				return nil, err
			}
			m := w.Net.Metrics()
			t.AddRow(mode, cutoff, m.Messages,
				fmt.Sprintf("%.1f", float64(m.Bytes)/1024),
				res.At.Truncate(1e6).String(), len(results))
		}
	}
	t.Note("expected shape (paper §2): MQPs ship reduced partial results, so bytes fall with selectivity; the coordinator pulls full collections regardless, but needs fewer serial hops — the robustness/pipelining tradeoff the paper names")
	return t, nil
}

// E6Intensional reproduces §4.2 Examples 1 and 2: intensional statements
// turn plain unions into | alternatives, cutting contacted servers and
// eliminating redundant answers.
func E6Intensional() (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Intensional statements: servers contacted and duplicate answers",
		Columns: []string{"scenario", "statement", "servers contacted", "answers", "duplicates"},
	}
	run := func(withStmt bool) (int, int, int, error) {
		ns := workload.GarageSaleNamespace()
		w := world.New(ns)
		pdx := ns.MustParseArea("[USA/OR/Portland, *]")
		meta := w.Peer(peer.Config{Addr: "M:1", PushSelect: true,
			Area: ns.MustParseArea("[USA, *]"), Authoritative: true, Key: []byte("kM")})
		sales, _ := workload.CDCatalog(31, 12)
		for _, addr := range []string{"R:1", "S:1"} {
			// R replicates S exactly: identical items.
			cp := make([]*xmltree.Node, len(sales))
			for i, s := range sales {
				cp[i] = s.Clone()
			}
			w.Base(peer.Config{Addr: addr, PushSelect: true, Area: pdx, Key: []byte("k" + addr)},
				peer.Collection{Name: "cds", PathExp: "/d", Area: pdx, Items: cp}, "M:1")
		}
		if withStmt {
			st, err := catalog.ParseStatement(ns, "base[USA/OR/Portland, *]@R:1 = base[USA/OR/Portland, *]@S:1")
			if err != nil {
				return 0, 0, 0, err
			}
			if err := meta.Catalog().AddStatement(st); err != nil {
				return 0, 0, 0, err
			}
		}
		client := w.Peer(peer.Config{Addr: "c:1", Key: []byte("kC")})
		plan := algebra.NewPlan("e6", "c:1",
			algebra.Display(algebra.URN(namespace.EncodeURN(pdx))))
		plan.RetainOriginal()
		res, results := w.Ask(client, "M:1", plan)
		if err := w.Err(); err != nil {
			return 0, 0, 0, err
		}
		trail, err := peer.QueryTrail(res)
		if err != nil {
			return 0, 0, 0, err
		}
		contacted := 0
		for _, s := range []string{"R:1", "S:1"} {
			if trail.Visited(s) {
				contacted++
			}
		}
		seen := map[string]int{}
		dups := 0
		for _, r := range results {
			seen[r.String()]++
			if seen[r.String()] > 1 {
				dups++
			}
		}
		return contacted, len(results), dups, nil
	}
	for _, withStmt := range []bool{false, true} {
		contacted, answers, dups, err := run(withStmt)
		if err != nil {
			return nil, err
		}
		label, stmt := "no statements", "-"
		if withStmt {
			label, stmt = "Example 1 (equality)", "base[Portland,*]@R = base[Portland,*]@S"
		}
		t.AddRow(label, stmt, contacted, answers, dups)
		if withStmt && (contacted != 1 || dups != 0) {
			return nil, fmt.Errorf("E6: statement should cut to 1 server, 0 dups; got %d, %d", contacted, dups)
		}
		if !withStmt && (contacted != 2 || dups == 0) {
			return nil, fmt.Errorf("E6: baseline should contact both and duplicate; got %d, %d", contacted, dups)
		}
	}

	// Example 2: index coverage lets the plan route via the index server
	// instead of contacting every base server.
	contacted, err := e6IndexCoverage()
	if err != nil {
		return nil, err
	}
	t.AddRow("Example 2 (index coverage)", "index[OR,GolfClubs]@I = base@S U base@T U base@U",
		fmt.Sprintf("%d (via index)", contacted), "-", "-")
	t.Note("Example 1: the | binding lets the router pick one replica — half the servers, no duplicate answers. Example 2: the plan visits the index server and only then the bases it names")
	return t, nil
}

// e6IndexCoverage builds §4.2 Example 2 and returns how many base servers
// the plan visited when routed via the covering index server.
func e6IndexCoverage() (int, error) {
	ns := workload.GarageSaleNamespace()
	w := world.New(ns)
	area := ns.MustParseArea("[USA/OR, Recreation/SportingGoods/GolfClubs]")

	meta := w.Peer(peer.Config{Addr: "M:1", PushSelect: true,
		Area: ns.MustParseArea("[USA, *]"), Authoritative: true, Key: []byte("kM")})
	// Index server I knows the three base servers.
	w.Peer(peer.Config{Addr: "I:1", PushSelect: true, Area: area, Authoritative: true, Key: []byte("kI")})
	for i, addr := range []string{"S:1", "T:1", "U:1"} {
		sales, _ := workload.CDCatalog(int64(40+i), 5)
		w.Base(peer.Config{Addr: addr, PushSelect: true, Area: area, Key: []byte("k" + addr)},
			peer.Collection{Name: "clubs", PathExp: "/d", Area: area, Items: sales}, "I:1")
	}
	// The meta server knows only the statement, not the base servers.
	st, err := catalog.ParseStatement(ns,
		"index[USA/OR, Recreation/SportingGoods/GolfClubs]@I:1 = "+
			"base[USA/OR, Recreation/SportingGoods/GolfClubs]@S:1 U "+
			"base[USA/OR, Recreation/SportingGoods/GolfClubs]@T:1 U "+
			"base[USA/OR, Recreation/SportingGoods/GolfClubs]@U:1")
	if err != nil {
		return 0, err
	}
	// To apply Example 2's binding the meta server also needs the base
	// registrations (the union side); it retains both.
	for _, addr := range []string{"S:1", "T:1", "U:1"} {
		if err := meta.Catalog().Register(catalog.Registration{
			Addr: addr, Role: catalog.RoleBase, Area: area,
			Collections: []catalog.Collection{{Name: "clubs", PathExp: "/d", Area: area}},
		}); err != nil {
			return 0, err
		}
	}
	if err := meta.Catalog().AddStatement(st); err != nil {
		return 0, err
	}
	client := w.Peer(peer.Config{Addr: "c:1", Key: []byte("kC")})
	plan := algebra.NewPlan("e6b", "c:1",
		algebra.Display(algebra.Count(algebra.URN(namespace.EncodeURN(area)))))
	plan.RetainOriginal()
	res, results := w.Ask(client, "M:1", plan)
	if err := w.Err(); err != nil {
		return 0, err
	}
	trail, err := peer.QueryTrail(res)
	if err != nil {
		return 0, err
	}
	if !trail.Visited("I:1") {
		return 0, fmt.Errorf("E6b: plan should route via the index server")
	}
	if results[0].InnerText() != "15" {
		return 0, fmt.Errorf("E6b: count = %s, want 15", results[0].InnerText())
	}
	contacted := 0
	for _, s := range []string{"S:1", "T:1", "U:1"} {
		if trail.Visited(s) {
			contacted++
		}
	}
	return contacted, nil
}
