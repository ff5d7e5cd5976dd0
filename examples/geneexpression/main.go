// The paper's Fig. 1 scenario: biomedical research groups host
// gene-expression repositories and describe their interests over Organism ×
// CellType hierarchies. A query about cardiac muscle cells in mammals is
// routed to the rodent and human labs and never touches the fly lab.
//
// Run: go run ./examples/geneexpression
package main

import (
	"fmt"
	"log"

	"repro/internal/algebra"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/workload"
	"repro/internal/world"
)

func main() {
	ns := workload.GeneNamespace()
	w := world.New(ns)
	groups := workload.Fig1Groups(ns)
	everything := ns.MustParseArea("[*, *]")

	// The NIH plays the paper's suggested meta-index role for the domain.
	w.Peer(peer.Config{Addr: "nih:9020", PushSelect: true,
		Area: everything, Authoritative: true, Key: []byte("kN")})
	for i, g := range groups {
		data := workload.ExpressionData(ns, g, int64(1000+i), 50)
		w.Base(peer.Config{Addr: g.Addr, PushSelect: true, Area: g.Area, Key: []byte(fmt.Sprintf("k%d", i))},
			peer.Collection{Name: g.Name, PathExp: "/miame", Area: g.Area, Items: data}, "nih:9020")
		fmt.Printf("lab %-15s hosts %2d experiments, interest area %s\n", g.Name, len(data), g.Area)
	}

	client := w.Peer(peer.Config{Addr: "researcher:9020", Key: []byte("kR")})
	w.Knows(client, "nih:9020", everything)

	query := ns.MustParseArea("[Coelomata/Deuterostomia/Mammalia, Muscle/Cardiac]")
	fmt.Printf("\nquery interest area: %s\n", query)
	for _, g := range groups {
		fmt.Printf("  overlaps %-15s: %v\n", g.Name, g.Area.Overlaps(query))
	}

	pred := algebra.And{
		L: algebra.Cmp{Path: "organism", Op: algebra.OpContains, Value: "Mammalia"},
		R: algebra.Cmp{Path: "celltype", Op: algebra.OpContains, Value: "Muscle/Cardiac"},
	}
	plan := algebra.NewPlan("cardiac", "researcher:9020",
		algebra.Display(algebra.Select(pred, algebra.URN(namespace.EncodeURN(query)))))
	plan.RetainOriginal()
	res, items := w.Ask(client, "nih:9020", plan)
	if err := w.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d cardiac-muscle experiments returned (%v):\n", len(items), res.At)
	for i, it := range items {
		if i == 5 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %-10s %-50s %s\n", it.Value("gene"), it.Value("organism"), it.Value("lab"))
	}

	trail, err := peer.QueryTrail(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nitinerary (from signed provenance):")
	for _, v := range trail.Visits {
		fmt.Printf("  %-16s %-8s %s\n", v.Server, v.Action, v.Detail)
	}
	fmt.Printf("fly lab visited: %v (paper: \"can ignore the first site\")\n", trail.Visited("fly-lab:9020"))
}
