package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/mqp"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/provenance"
	"repro/internal/workload"
	"repro/internal/world"
	"repro/internal/xmltree"
)

// E7CurrencyLatency reproduces §4.3: server R replicates S with a 30-minute
// delay (R ⊇ S{30}); a query may take the fast-but-stale answer from R
// alone, or the complete-and-current answer from R ∪ S at higher latency.
// The query's time budget plus its complete-vs-current preference drives
// the choice.
func E7CurrencyLatency() (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Currency vs latency: R >= S{30}, query prefs sweep",
		Columns: []string{"preference", "budget ms", "sites", "latency", "distinct answers", "fresh missed"},
	}
	const total = 55
	const replicated = 50 // R's snapshot misses the 5 most recent items

	run := func(preferCurrent bool, budgetMS int) (sites int, lat time.Duration, distinct, missed int, err error) {
		ns := workload.GarageSaleNamespace()
		w := world.New(ns)
		pdx := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")

		meta := w.Peer(peer.Config{Addr: "M:1", PushSelect: true,
			Area: ns.MustParseArea("[USA, *]"), Authoritative: true, Key: []byte("kM")})
		all, _ := workload.CDCatalog(77, total)
		snapshot := make([]*xmltree.Node, replicated)
		for i := range snapshot {
			snapshot[i] = all[i].Clone()
		}
		w.Base(peer.Config{Addr: "R:1", PushSelect: true, Area: pdx, Key: []byte("kR:1")},
			peer.Collection{Name: "cds", PathExp: "/d", Area: pdx, Items: snapshot, StalenessMin: 30}, "M:1")
		w.Base(peer.Config{Addr: "S:1", PushSelect: true, Area: pdx, Key: []byte("kS:1")},
			peer.Collection{Name: "cds", PathExp: "/d", Area: pdx, Items: all}, "M:1")
		st, err := catalog.ParseStatement(ns,
			"base[USA/OR/Portland, Music/CDs]@R:1 >= base[USA/OR/Portland, Music/CDs]@S:1{30}")
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if err := meta.Catalog().AddStatement(st); err != nil {
			return 0, 0, 0, 0, err
		}
		client := w.Peer(peer.Config{Addr: "c:1", Key: []byte("kC")})
		plan := algebra.NewPlan("e7", "c:1",
			algebra.Display(algebra.URN(namespace.EncodeURN(pdx))))
		plan.RetainOriginal()
		mqp.SetPrefs(plan, mqp.Prefs{BudgetMS: budgetMS, PreferCurrent: preferCurrent})
		res, results := w.Ask(client, "M:1", plan)
		if err := w.Err(); err != nil {
			return 0, 0, 0, 0, err
		}
		trail, err := peer.QueryTrail(res)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		for _, srv := range []string{"R:1", "S:1"} {
			if trail.Visited(srv) {
				sites++
			}
		}
		seen := map[string]bool{}
		for _, it := range results {
			seen[it.String()] = true
		}
		return sites, res.At, len(seen), total - len(seen), nil
	}

	cases := []struct {
		label  string
		cur    bool
		budget int
	}{
		{"stale-ok (fast)", false, 0},
		{"prefer-current, generous budget", true, 2000},
		{"prefer-current, tight budget", true, 60},
	}
	var latFast, latCurrent time.Duration
	for _, c := range cases {
		sites, lat, distinct, missed, err := run(c.cur, c.budget)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.label, c.budget, sites, lat.Truncate(time.Millisecond).String(), distinct, missed)
		switch c.label {
		case "stale-ok (fast)":
			latFast = lat
			if sites != 1 || missed != 5 {
				return nil, fmt.Errorf("E7: stale-ok expected 1 site, 5 missed; got %d, %d", sites, missed)
			}
		case "prefer-current, generous budget":
			latCurrent = lat
			if sites != 2 || missed != 0 {
				return nil, fmt.Errorf("E7: current expected 2 sites, 0 missed; got %d, %d", sites, missed)
			}
		case "prefer-current, tight budget":
			if sites != 1 {
				return nil, fmt.Errorf("E7: tight budget should fall back to 1 site; got %d", sites)
			}
		}
	}
	if latCurrent <= latFast {
		return nil, fmt.Errorf("E7: current answer should cost more latency (%v vs %v)", latCurrent, latFast)
	}
	t.Note("paper §4.3: \"one can get an answer (more) quickly by just routing the MQP to R, but that answer could be up to 30 minutes out of date\" — the stale answer misses the 5 items S gained since the last sync")
	return t, nil
}

// E8AbsorptionRewrite measures the §2 rewrite (A ⋈ X) ⋈ B → (A ⋈ B) ⋈ X
// when A and B are local and X remote: the bytes a server must ship drop
// with |A ⋈ B| / |A|.
func E8AbsorptionRewrite() (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Absorption rewrite: shipped partial-result bytes vs join selectivity",
		Columns: []string{"|A|", "|A join B|", "baseline KB shipped", "rewritten KB shipped", "ratio"},
	}
	const nA = 400
	mk := func(tag string, n int, key func(i int) int) []*xmltree.Node {
		out := make([]*xmltree.Node, n)
		for i := range out {
			e := xmltree.Elem(tag)
			e.Add(
				xmltree.ElemText("k1", fmt.Sprintf("x%d", i%37)),
				xmltree.ElemText("k2", fmt.Sprintf("b%d", key(i))),
				xmltree.ElemText("payload", strings.Repeat(tag, 10)+fmt.Sprint(i)),
			)
			out[i] = e
		}
		return out
	}
	for _, matchEvery := range []int{100, 10, 2, 1} {
		// A items whose k2 matches B only every matchEvery-th item.
		aDocs := mk("a", nA, func(i int) int {
			if i%matchEvery == 0 {
				return i % 8
			}
			return 100000 + i // never joins
		})
		bDocs := mk("b", 8, func(i int) int { return i % 8 })

		a := algebra.Data(aDocs...)
		b := algebra.Data(bDocs...)
		x := algebra.URN("urn:X:remote")

		// Baseline: (A ⋈ X) ⋈ B — nothing locally evaluable; A and B ship
		// verbatim inside the plan.
		inner := algebra.JoinNamed("k1", "k1", "a", "x", a.Clone(), x.Clone())
		outer := algebra.JoinNamed("a/k2", "k2", "ax", "b", inner, b.Clone())
		basePlan := algebra.NewPlan("e8-base", "t:1", algebra.Display(outer))
		baseBytes := algebra.WireSize(basePlan)

		// Rewritten: (A ⋈ B) ⋈ X — the local pair reduces before shipping.
		rw, err := algebra.AbsorbJoin(outer)
		if err != nil {
			return nil, err
		}
		reduced, err := engine.Reduce(rw.Children[0])
		if err != nil {
			return nil, err
		}
		rwOuter := algebra.JoinNamed(rw.LeftKey, rw.RightKey, rw.LeftName, rw.RightName,
			reduced, rw.Children[1])
		rwPlan := algebra.NewPlan("e8-rw", "t:1", algebra.Display(rwOuter))
		rwBytes := algebra.WireSize(rwPlan)

		joinCard := len(reduced.Docs)
		t.AddRow(nA, joinCard,
			fmt.Sprintf("%.1f", float64(baseBytes)/1024),
			fmt.Sprintf("%.1f", float64(rwBytes)/1024),
			float64(rwBytes)/float64(baseBytes))
		if matchEvery == 100 && rwBytes*3 > baseBytes {
			return nil, fmt.Errorf("E8: highly selective join should ship far less (%d vs %d)", rwBytes, baseBytes)
		}
	}
	t.Note("paper §2: \"If we know that |A join B| << |A| we can reduce network traffic\" — the ratio approaches and passes 1 as the join keeps most of A")
	return t, nil
}

// E9CatalogScaling measures resolution cost against network size and the
// effect of the §3.4 peer caches: after a first query reveals the index
// server responsible for an area, the client routes later plans straight to
// it, skipping the meta level. short drops the largest network size.
func E9CatalogScaling(short bool) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Catalog routing: hops/messages vs network size, cold vs cached",
		Columns: []string{"peers", "phase", "avg hops", "avg msgs", "meta-cache hit rate"},
	}
	for _, n := range scaleSizes(short, 16, 64, 128) {
		w, err := buildGarageWorld(n, int64(n)+5)
		if err != nil {
			return nil, err
		}
		queries := workload.Queries(w.NS, int64(n)*3+2, 8, 1.4)

		runPhase := func(phase string, learn bool) (float64, float64, error) {
			w.Net.ResetMetrics()
			totalHops, answered := 0, 0
			for qi, q := range queries {
				plan := algebra.NewPlan(fmt.Sprintf("e9-%s-%d", phase, qi), "client:9020",
					algebra.Display(algebra.Count(algebra.URN(namespace.EncodeURN(q.Area)))))
				plan.RetainOriginal()
				if err := w.client.Submit("client:9020", plan); err != nil {
					return 0, 0, err
				}
				res, ok := w.client.TakeResult()
				if !ok {
					return 0, 0, fmt.Errorf("E9: missing result")
				}
				totalHops += res.Hops
				answered++
				if learn {
					// §3.4: cache the index servers that did the binding.
					trail, err := peer.QueryTrail(res)
					if err != nil {
						return 0, 0, err
					}
					for _, v := range trail.Visits {
						if v.Action == provenance.ActionBind && strings.HasPrefix(v.Server, "idx-") {
							if err := w.client.Catalog().Register(catalog.Registration{
								Addr: v.Server, Role: catalog.RoleIndex,
								Area: q.Area, Authoritative: true,
							}); err != nil {
								return 0, 0, err
							}
						}
					}
				}
			}
			if answered == 0 {
				return 0, 0, fmt.Errorf("E9: no queries answered")
			}
			m := w.Net.Metrics()
			return float64(totalHops) / float64(answered), float64(m.Messages) / float64(answered), nil
		}

		coldHops, coldMsgs, err := runPhase("cold", true)
		if err != nil {
			return nil, err
		}
		warmHops, warmMsgs, err := runPhase("warm", false)
		if err != nil {
			return nil, err
		}
		metaHits, metaMisses := w.Peers["meta:9020"].Catalog().CacheStats()
		hitRate := 0.0
		if metaHits+metaMisses > 0 {
			hitRate = float64(metaHits) / float64(metaHits+metaMisses)
		}
		t.AddRow(n, "cold", coldHops, coldMsgs, "-")
		t.AddRow(n, "warm (peer caches)", warmHops, warmMsgs, fmt.Sprintf("%.2f", hitRate))
		if warmHops > coldHops {
			return nil, fmt.Errorf("E9: warm routing should not take more hops (%f vs %f)", warmHops, coldHops)
		}
	}
	t.Note("paper §3.4: \"peers maintain caches of index and meta-index servers for interest areas, so that they can route plans more efficiently in the future\" — warm queries skip the meta hop; resolution depth stays flat as N grows (DNS-like), while total hops track the number of matching base servers the plan must visit")
	return t, nil
}
