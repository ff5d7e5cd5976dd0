// The §5.2 privacy scenario: a law-enforcement agency asks which TargetCorp
// employees contributed more than $5000 to suspected front organizations.
// The IRS will pass its (filtered) data to the State Department but not to
// the agency; the State Department joins without disclosing its watch list.
// The MQP visits IRS → State Dept and only the projected names return.
//
// Run: go run ./examples/privatejoin
package main

import (
	"fmt"
	"log"

	"repro/internal/algebra"
	"repro/internal/mqp"
	"repro/internal/peer"
	"repro/internal/route"
	"repro/internal/workload"
	"repro/internal/world"
	"repro/internal/xmltree"
)

func main() {
	w := world.New(workload.GarageSaleNamespace()) // namespaces are irrelevant here; aliases route
	irs := w.Peer(peer.Config{Addr: "irs:1", PushSelect: true, Key: []byte("kI")})
	state := w.Peer(peer.Config{Addr: "state:1", PushSelect: true, Key: []byte("kS")})
	agency := w.Peer(peer.Config{Addr: "agency:1", Key: []byte("kA")})

	charities := []string{"Shell-Org-A", "Food-Bank", "Shell-Org-B", "Red-Cross", "Library-Fund"}
	var returns []*xmltree.Node
	for i := 0; i < 30; i++ {
		r := xmltree.Elem("return")
		r.Add(
			xmltree.ElemText("name", fmt.Sprintf("Employee %02d", i)),
			xmltree.ElemText("charity", charities[i%len(charities)]),
			xmltree.ElemText("amount", fmt.Sprintf("%d", 2000+i*400)),
		)
		returns = append(returns, r)
	}
	irs.AddCollection(peer.Collection{Name: "returns", PathExp: "/returns", Items: returns})
	state.AddCollection(peer.Collection{Name: "fronts", PathExp: "/fronts", Items: []*xmltree.Node{
		xmltree.MustParse(`<front><org>Shell-Org-A</org></front>`),
		xmltree.MustParse(`<front><org>Shell-Org-B</org></front>`),
	}})

	agency.Catalog().AddAlias("urn:IRS:TargetCorp-Contributions", "http://irs:1/returns")
	agency.Catalog().AddAlias("urn:State:FrontOrgs", "http://state:1/fronts")
	// The IRS also knows where the State Department publishes its list, so
	// it can bind that source once its own filtering is done.
	irs.Catalog().AddAlias("urn:State:FrontOrgs", "http://state:1/fronts")

	plan := algebra.NewPlan("investigation", "agency:1", algebra.Display(
		algebra.Project("person", []string{"contrib/name", "contrib/amount"},
			algebra.JoinNamed("charity", "org", "contrib", "front",
				algebra.Select(algebra.MustParsePredicate("amount > 5000"),
					algebra.URN("urn:IRS:TargetCorp-Contributions")),
				algebra.URN("urn:State:FrontOrgs")))))
	plan.RetainOriginal()
	// §5.2 transfer policy: this plan may only pass through the two
	// agencies (and the submitting client); no third party ever sees the
	// partial results.
	route.RestrictServers(plan, "agency:1", "irs:1", "state:1")
	// §5.2 ordering policy: the watch list is not bound until the IRS data
	// has been filtered into the plan.
	mqp.BindAfter(plan, "urn:State:FrontOrgs", "urn:IRS:TargetCorp-Contributions")

	res, items := w.Ask(agency, "agency:1", plan)
	if err := w.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("employees with >$5000 contributions to front organizations (%d):\n", len(items))
	for _, it := range items {
		fmt.Printf("  %s ($%s)\n", it.Value("name"), it.Value("amount"))
	}

	trail, err := peer.QueryTrail(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nplan itinerary:")
	for _, v := range trail.Visits {
		fmt.Printf("  %-9s %-8s %s\n", v.Server, v.Action, v.Detail)
	}
	over := 0
	for _, r := range returns {
		if v, err := r.Int("amount"); err == nil && v > 5000 {
			over++
		}
	}
	fmt.Printf("\ndisclosure: agency saw %d projected rows; State Dept saw %d filtered IRS rows "+
		"(of %d total); the watch list never left the State Dept\n", len(items), over, len(returns))
}
