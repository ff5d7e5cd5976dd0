// The P2P garage sale of paper §2 at scale: 40 generated sellers with
// geographic and merchandise locality, a two-level catalog (state index
// servers under a country-wide meta-index), and a mix of queries — area
// counts, price-filtered searches, and a top-n bargain hunt.
//
// Run: go run ./examples/garagesale
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/hierarchy"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/workload"
	"repro/internal/world"
	"repro/internal/xmltree"
)

func main() {
	ns := workload.GarageSaleNamespace()
	w := world.New(ns)
	sellers := workload.GarageSale(ns, workload.GarageSaleConfig{
		Seed: 2026, Sellers: 48, ItemsPerSeller: 10, SpecialtyZipf: 1.1,
	})
	everything := ns.MustParseArea("[*, *]")

	// Meta-index covering everything.
	w.Peer(peer.Config{Addr: "meta:9020", PushSelect: true,
		Area: everything, Authoritative: true, Key: []byte("kM")})

	// One authoritative index server per state, registered upward.
	states := map[string]string{}
	for _, s := range sellers {
		st := s.City.Truncate(2).String()
		if _, ok := states[st]; ok {
			continue
		}
		addr := "idx-" + strings.ReplaceAll(st, "/", "-") + ":9020"
		w.Join(w.Peer(peer.Config{Addr: addr, PushSelect: true,
			Area:          namespace.NewArea(namespace.NewCell(s.City.Truncate(2), hierarchy.Top)),
			Authoritative: true, Key: []byte("kI")}), "meta:9020", catalog.RoleIndex)
		states[st] = addr
	}
	fmt.Printf("deployed %d sellers across %d state index servers\n", len(sellers), len(states))

	for _, s := range sellers {
		w.Base(peer.Config{Addr: s.Addr, PushSelect: true, Area: s.Area, Key: []byte("kS")},
			peer.Collection{Name: "items", PathExp: "/data[id=0]", Area: s.Area, Items: s.Items},
			states[s.City.Truncate(2).String()])
	}

	client := w.Peer(peer.Config{Addr: "buyer:9020", Key: []byte("kB")})
	w.Knows(client, "meta:9020", everything)
	if err := w.Err(); err != nil {
		log.Fatal(err)
	}

	ask := func(id string, root *algebra.Node) (peer.Result, []*xmltree.Node) {
		plan := algebra.NewPlan(id, "buyer:9020", algebra.Display(root))
		plan.RetainOriginal()
		res, items := w.Ask(client, "buyer:9020", plan)
		if err := w.Err(); err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		return res, items
	}
	urn := func(area string) *algebra.Node {
		return algebra.URN(namespace.EncodeURN(ns.MustParseArea(area)))
	}

	// Query 1: how much furniture is for sale in Oregon?
	res, items := ask("q1", algebra.Count(algebra.Select(
		algebra.Cmp{Path: "category", Op: algebra.OpContains, Value: "Furniture"},
		urn("[USA/OR, Furniture]"))))
	fmt.Printf("q1: furniture items in Oregon: %s (%v, %d hops)\n",
		items[0].InnerText(), res.At, res.Hops)

	// Query 2: cheap CDs anywhere in Washington.
	_, items = ask("q2", algebra.Select(
		algebra.MustParsePredicate("price < 100 and category contains 'Books'"),
		urn("[USA/WA, Books]")))
	fmt.Printf("q2: books under $100 in Washington: %d items\n", len(items))
	for i, it := range items {
		if i == 3 {
			fmt.Println("   ...")
			break
		}
		fmt.Printf("   %s in %s: $%s (%s)\n",
			it.Value("name"), it.Value("city"), it.Value("price"), it.Value("condition"))
	}

	// Query 3: the five cheapest like-new items in Portland, any category.
	_, items = ask("q3", algebra.TopN(5, "price", false, algebra.Select(
		algebra.MustParsePredicate("condition = 'like-new'"),
		urn("[USA/OR/Portland, *]"))))
	fmt.Printf("q3: five cheapest like-new items in Portland (%d found):\n", len(items))
	for _, it := range items {
		fmt.Printf("   $%-4s %-22s %s\n", it.Value("price"), it.Value("name"), it.Value("category"))
	}

	m := w.Net.Metrics()
	fmt.Printf("network totals: %d messages, %.1f KB\n", m.Messages, float64(m.Bytes)/1024)
}
