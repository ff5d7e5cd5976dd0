package experiments

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/workload"
	"repro/internal/world"
)

// E13Ablations toggles three of the optimizations the peers make and
// measures their individual effect:
//
//   - select push-through-union (Fig. 4a) — bytes shipped between hops;
//   - resolution caches (§3.4) — messages to resolve repeated queries;
//   - histogram pruning (§3.2 attribute indices) — base servers visited.
func E13Ablations() (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "Ablations: each optimization on/off, all else equal",
		Columns: []string{"optimization", "setting", "metric", "value"},
	}

	// --- Push-select: bytes moved on a two-seller selective query. ---
	for _, push := range []bool{false, true} {
		ns := workload.GarageSaleNamespace()
		w := world.New(ns)
		pdx := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
		usa := ns.MustParseArea("[USA, *]")
		w.Peer(peer.Config{Addr: "M:1", PushSelect: push, Area: usa, Authoritative: true, Key: []byte("kM")})
		for i, addr := range []string{"s1:1", "s2:1"} {
			sales, _ := workload.CDCatalog(int64(90+i), 60)
			w.Base(peer.Config{Addr: addr, PushSelect: push, Area: pdx, Key: []byte(addr)},
				peer.Collection{Name: "cds", PathExp: "/d", Area: pdx, Items: sales}, "M:1")
		}
		client := w.Peer(peer.Config{Addr: "c:1", Key: []byte("kC")})
		w.Knows(client, "M:1", usa)
		plan := algebra.NewPlan(fmt.Sprintf("e13-push-%v", push), "c:1",
			algebra.Display(algebra.Select(algebra.MustParsePredicate("price < 6"),
				algebra.URN(namespace.EncodeURN(pdx)))))
		w.Net.ResetMetrics()
		w.Ask(client, "M:1", plan)
		if err := w.Err(); err != nil {
			return nil, err
		}
		m := w.Net.Metrics()
		t.AddRow("push-select (Fig. 4a)", onOff(push), "KB moved",
			fmt.Sprintf("%.1f", float64(m.Bytes)/1024))
	}

	// --- Resolution caches: messages for a repeated query at the meta. ---
	for _, cache := range []bool{false, true} {
		w, err := buildGarageWorld(48, 99)
		if err != nil {
			return nil, err
		}
		for _, p := range w.Peers {
			p.Catalog().EnableCache(cache)
		}
		q := workload.Queries(w.NS, 321, 1, 1.3)[0]
		urn := namespace.EncodeURN(q.Area)
		w.Net.ResetMetrics()
		for i := 0; i < 6; i++ {
			w.Ask(w.client, "client:9020", algebra.NewPlan(fmt.Sprintf("e13-cache-%v-%d", cache, i), "client:9020",
				algebra.Display(algebra.Count(algebra.URN(urn)))))
		}
		if err := w.Err(); err != nil {
			return nil, err
		}
		hits := int64(0)
		for _, p := range w.Peers {
			h, _ := p.Catalog().CacheStats()
			hits += h
		}
		t.AddRow("resolution cache (§3.4)", onOff(cache), "catalog cache hits (6 queries)", hits)
	}

	// --- Histogram pruning: servers visited on a price-bounded query. ---
	for _, prune := range []bool{false, true} {
		ns := workload.GarageSaleNamespace()
		w := world.New(ns)
		pdx := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
		usa := ns.MustParseArea("[USA, *]")
		w.Peer(peer.Config{Addr: "M:1", PushSelect: true, Area: usa, Authoritative: true, Key: []byte("kM"),
			PruneStats: prune})
		// Five sellers; only two have items under $20.
		for i := 0; i < 5; i++ {
			addr := fmt.Sprintf("s%d:1", i)
			base := 100 * (i + 1)
			if i < 2 {
				base = 1
			}
			var docs []string
			for j := 0; j < 8; j++ {
				docs = append(docs, fmt.Sprintf(`<sale><cd>c%d-%d</cd><price>%d</price></sale>`, i, j, base+j))
			}
			w.Base(peer.Config{Addr: addr, PushSelect: true, Area: pdx, Key: []byte(addr), StatsHistPath: "price"},
				peer.Collection{Name: "cds", PathExp: "/d", Area: pdx, Items: items(docs...)}, "M:1")
		}
		client := w.Peer(peer.Config{Addr: "c:1", Key: []byte("kC")})
		w.Knows(client, "M:1", usa)
		plan := algebra.NewPlan(fmt.Sprintf("e13-prune-%v", prune), "c:1",
			algebra.Display(algebra.Select(algebra.MustParsePredicate("price < 20"),
				algebra.URN(namespace.EncodeURN(pdx)))))
		plan.RetainOriginal()
		res, got := w.Ask(client, "M:1", plan)
		if err := w.Err(); err != nil {
			return nil, err
		}
		if len(got) != 16 {
			return nil, fmt.Errorf("E13: prune=%v results = %d, want 16", prune, len(got))
		}
		trail, err := peer.QueryTrail(res)
		if err != nil {
			return nil, err
		}
		visited := 0
		for i := 0; i < 5; i++ {
			if trail.Visited(fmt.Sprintf("s%d:1", i)) {
				visited++
			}
		}
		if prune && visited != 2 {
			return nil, fmt.Errorf("E13: pruning should cut visits to 2, got %d", visited)
		}
		if !prune && visited != 5 {
			return nil, fmt.Errorf("E13: without pruning all 5 visited, got %d", visited)
		}
		t.AddRow("histogram pruning (§3.2)", onOff(prune), "base servers visited", visited)
	}

	t.Note("each pair differs only in the named optimization; answers are identical in every pair")
	return t, nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
