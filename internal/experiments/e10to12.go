package experiments

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/mqp"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/provenance"
	"repro/internal/simnet"
	"repro/internal/workload"
	"repro/internal/world"
	"repro/internal/xmltree"
)

// maliciousPeer wraps an honest peer and spoofs incoming plans: any URN
// matching victimURN is silently bound to the empty set before the honest
// machinery runs — the §5.1 attack where "S could bind A to its actual
// value, but bind B to the empty set, making it appear that T has no
// qualifying items".
type maliciousPeer struct {
	inner     *peer.Peer
	victimURN string
}

// Addr implements simnet.Peer.
func (m *maliciousPeer) Addr() string { return m.inner.Addr() }

// Deliver implements simnet.Peer: tampers with MQPs, then delegates.
func (m *maliciousPeer) Deliver(net *simnet.Network, msg *simnet.Message) error {
	if msg.Kind == peer.KindMQP {
		plan, err := algebra.Unmarshal(msg.Body)
		if err == nil {
			tampered := false
			var stripURN func(n *algebra.Node) *algebra.Node
			stripURN = func(n *algebra.Node) *algebra.Node {
				for i, c := range n.Children {
					n.Children[i] = stripURN(c)
				}
				if n.Kind == algebra.KindURN && n.URN == m.victimURN {
					tampered = true
					empty := algebra.Data()
					empty.SetCard(0)
					return empty
				}
				return n
			}
			plan.Root = stripURN(plan.Root)
			if tampered {
				msg = &simnet.Message{From: msg.From, To: msg.To, Kind: msg.Kind,
					Body: algebra.Marshal(plan), At: msg.At, Hops: msg.Hops}
			}
		}
	}
	return m.inner.Deliver(net, msg)
}

// Serve implements simnet.Peer by delegation.
func (m *maliciousPeer) Serve(net *simnet.Network, req *simnet.Message) (*xmltree.Node, error) {
	return m.inner.Serve(net, req)
}

// E10Provenance runs the §5.1 spoofing scenario: honest evaluation vs a
// server that binds a competitor's source to the empty set. The retained
// original query plus the provenance trail expose the missing visit, and a
// verification count query against the victim confirms the suppression.
func E10Provenance() (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "Provenance: spoof detection via missing visits + verification query",
		Columns: []string{"scenario", "answers", "suspect URNs", "verify count@T", "detected", "trail verifies"},
	}
	keys := map[string][]byte{
		"M:1": []byte("kM"), "S:1": []byte("kS"), "T:1": []byte("kT"), "c:1": []byte("kC"),
	}
	keyring := func(s string) []byte { return keys[s] }

	run := func(spoof bool) error {
		ns := workload.GarageSaleNamespace()
		w := world.New(ns)
		pdx := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
		sea := ns.MustParseArea("[USA/WA/Seattle, Music/CDs]")
		usa := ns.MustParseArea("[USA, *]")

		w.Peer(peer.Config{Addr: "M:1", PushSelect: true, Area: usa, Authoritative: true, Key: keys["M:1"]})
		client := w.Peer(peer.Config{Addr: "c:1", Key: keys["c:1"]})
		sSales, _ := workload.CDCatalog(51, 8)
		sPeer := w.Base(peer.Config{Addr: "S:1", PushSelect: true, Area: pdx, Key: keys["S:1"]},
			peer.Collection{Name: "cds", PathExp: "/d", Area: pdx, Items: sSales}, "M:1")
		tSales, _ := workload.CDCatalog(52, 6)
		w.Base(peer.Config{Addr: "T:1", PushSelect: true, Area: sea, Key: keys["T:1"]},
			peer.Collection{Name: "cds", PathExp: "/d", Area: sea, Items: tSales}, "M:1")
		w.Knows(client, "M:1", usa)

		urnS := namespace.EncodeURN(pdx)
		urnT := namespace.EncodeURN(sea)
		if spoof {
			// S intercepts plans and suppresses T's source.
			w.Net.Add(&maliciousPeer{inner: sPeer, victimURN: urnT})
			// Route the plan through S first so it can tamper; S needs
			// enough catalog to keep the plan moving (its own collection
			// and the meta server for anything else).
			if err := client.Catalog().Register(catalog.Registration{
				Addr: "S:1", Role: catalog.RoleIndex, Area: pdx, Authoritative: true,
			}); err != nil {
				return err
			}
			if err := sPeer.Catalog().Register(sPeer.Registration(catalog.RoleBase)); err != nil {
				return err
			}
			w.Knows(sPeer, "M:1", usa)
		}

		// σ(A) ∪ σ(B): A at S, B at T (the paper's example shape).
		plan := algebra.NewPlan("e10", "c:1", algebra.Display(
			algebra.Union(algebra.URN(urnS), algebra.URN(urnT))))
		plan.RetainOriginal()
		first := "M:1"
		if spoof {
			first = "S:1"
		}
		res, results := w.Ask(client, first, plan)
		if err := w.Err(); err != nil {
			return err
		}
		trail, err := peer.QueryTrail(res)
		if err != nil {
			return err
		}
		_, verifyErr := trail.Verify(keyring)
		suspects := provenance.SuspectMissingSource(res.Plan, trail)

		// The client follows up with the verification query of §5.1:
		// count(B) sent toward T.
		_, vItems := w.Ask(client, "M:1", provenance.VerificationQuery("e10-verify", "c:1", urnT, nil))
		if err := w.Err(); err != nil {
			return err
		}
		verifyCount := vItems[0].InnerText()

		detected := len(suspects) > 0 && verifyCount != "0"
		scenario := "honest"
		if spoof {
			scenario = "S spoofs T's source"
		}
		t.AddRow(scenario, len(results), fmt.Sprintf("%v", suspects), verifyCount, detected, verifyErr == nil)

		if spoof {
			if len(suspects) != 1 || suspects[0] != urnT {
				return fmt.Errorf("E10: spoof not flagged; suspects=%v", suspects)
			}
			if len(results) != 8 {
				return fmt.Errorf("E10: spoofed answer should miss T's 6 items; got %d", len(results))
			}
			if !detected {
				return fmt.Errorf("E10: verification query failed to confirm")
			}
		} else {
			if len(suspects) != 0 || len(results) != 14 {
				return fmt.Errorf("E10: honest run flagged or incomplete: %v, %d", suspects, len(results))
			}
		}
		return nil
	}
	if err := run(false); err != nil {
		return nil, err
	}
	if err := run(true); err != nil {
		return nil, err
	}
	t.Note("paper §5.1: \"the resulting MQP would show that P never visited T\" — the suspect list comes from comparing the retained original query's URNs with signed trail visits; count(B)@T > 0 confirms suppression")
	return t, nil
}

// E11Annotations measures §5.1's statistics annotations: a server declines
// to materialize an oversized collection and publishes cardinality plus a
// histogram instead, so the plan gathers the small side first and returns —
// cutting the bytes shipped.
func E11Annotations() (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Statistics annotations: eager materialization vs decline-and-annotate",
		Columns: []string{"strategy", "msgs", "total KB moved", "answers"},
	}
	const bigN = 1500
	const smallN = 80

	run := func(annotate bool) (int64, float64, int, error) {
		ns := workload.GarageSaleNamespace()
		w := world.New(ns)
		pdx := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
		sea := ns.MustParseArea("[USA/WA/Seattle, Music/CDs]")
		usa := ns.MustParseArea("[USA, *]")

		var sPolicy mqp.Policy = mqp.ForwardOnlyPolicy{}
		if annotate {
			sPolicy = mqp.ForwardOnlyPolicy{DefaultPolicy: mqp.DefaultPolicy{MaxReduceCard: 500}}
		}
		w.Peer(peer.Config{Addr: "M:1", PushSelect: true, Area: usa, Authoritative: true, Key: []byte("kM")})
		big, _ := workload.CDCatalog(61, bigN)
		w.Base(peer.Config{Addr: "S:1", PushSelect: true, Area: pdx, Key: []byte("kS"), Policy: sPolicy,
			StatsHistPath: "price", StatsKeyPaths: []string{"cd"}},
			peer.Collection{Name: "big", PathExp: "/d", Area: pdx, Items: big}, "M:1")
		small, _ := workload.CDCatalog(62, smallN)
		w.Base(peer.Config{Addr: "T:1", PushSelect: true, Area: sea, Key: []byte("kT")},
			peer.Collection{Name: "small", PathExp: "/d", Area: sea, Items: small}, "M:1")
		client := w.Peer(peer.Config{Addr: "c:1", Key: []byte("kC")})
		w.Knows(client, "M:1", usa)

		// big-S ⋈ σ(small-T) on cd title, with the big side first so the
		// plan reaches S before T: an eager S materializes its 1500-item
		// collection into the plan; an annotating S declines, publishes
		// statistics, and lets the small selective side reduce first.
		join := algebra.JoinNamed("cd", "cd", "offer", "want",
			algebra.URN(namespace.EncodeURN(pdx)),
			algebra.Select(algebra.MustParsePredicate("price < 9"),
				algebra.URN(namespace.EncodeURN(sea))))
		plan := algebra.NewPlan("e11", "c:1", algebra.Display(join))
		plan.RetainOriginal()
		w.Net.ResetMetrics()
		_, results := w.Ask(client, "M:1", plan)
		if err := w.Err(); err != nil {
			return 0, 0, 0, err
		}
		m := w.Net.Metrics()
		return m.Messages, float64(m.Bytes) / 1024, len(results), nil
	}

	var eagerKB, annKB float64
	var eagerAns, annAns int
	for _, annotate := range []bool{false, true} {
		msgs, kb, answers, err := run(annotate)
		if err != nil {
			return nil, err
		}
		label := "eager materialization"
		if annotate {
			label = "decline + annotate (card, histogram)"
			annKB, annAns = kb, answers
		} else {
			eagerKB, eagerAns = kb, answers
		}
		t.AddRow(label, msgs, fmt.Sprintf("%.1f", kb), answers)
	}
	if annAns != eagerAns {
		return nil, fmt.Errorf("E11: strategies disagree on answers: %d vs %d", annAns, eagerAns)
	}
	if annKB >= eagerKB {
		return nil, fmt.Errorf("E11: annotation strategy should move fewer bytes (%.1f vs %.1f)", annKB, eagerKB)
	}
	t.Note("paper §5.1: \"S could annotate B with its cardinality ... or even a histogram\"; the plan fetches the small selective side first and only then returns to the big collection, which never travels")
	return t, nil
}

// E12PrivateJoin runs the §5.2 IRS / State-Department scenario and counts
// what each party reveals, against a coordinator that must pull both
// relations to one site.
func E12PrivateJoin() (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Privacy-preserving multi-site join (IRS / State Dept)",
		Columns: []string{"mode", "rows revealed to client", "IRS rows revealed to StateDept", "answers"},
	}
	w := world.New(workload.GarageSaleNamespace()) // namespace is irrelevant; aliases route
	irs := w.Peer(peer.Config{Addr: "irs:1", PushSelect: true, Key: []byte("kI")})
	state := w.Peer(peer.Config{Addr: "state:1", PushSelect: true, Key: []byte("kS")})
	client := w.Peer(peer.Config{Addr: "agency:1", Key: []byte("kA")})

	// IRS: contributions by employees of the target company.
	var returns []*xmltree.Node
	charities := []string{"Shell-Org-A", "Shell-Org-B", "Food-Bank", "Red-Cross", "Library-Fund"}
	for i := 0; i < 40; i++ {
		r := xmltree.Elem("return")
		r.Add(
			xmltree.ElemText("name", fmt.Sprintf("Employee %02d", i)),
			xmltree.ElemText("company", "TargetCorp"),
			xmltree.ElemText("charity", charities[i%len(charities)]),
			xmltree.ElemText("amount", fmt.Sprintf("%d", 1000+i*500)),
		)
		returns = append(returns, r)
	}
	irs.AddCollection(peer.Collection{Name: "returns", PathExp: "/returns", Items: returns})

	// State Department: suspected front organizations.
	fronts := items(
		`<front><org>Shell-Org-A</org></front>`,
		`<front><org>Shell-Org-B</org></front>`,
	)
	state.AddCollection(peer.Collection{Name: "fronts", PathExp: "/fronts", Items: fronts})

	// Aliases: the client knows both URNs route via the holders.
	client.Catalog().AddAlias("urn:IRS:TargetCorp-Contributions", "http://irs:1/returns")
	client.Catalog().AddAlias("urn:State:FrontOrgs", "http://state:1/fronts")

	// MQP: π_name(σ_amount>5000(IRS) ⋈_charity=org fronts).
	plan := algebra.NewPlan("e12", "agency:1", algebra.Display(
		algebra.Project("person", []string{"contrib/name"},
			algebra.JoinNamed("charity", "org", "contrib", "front",
				algebra.Select(algebra.MustParsePredicate("amount > 5000"),
					algebra.URN("urn:IRS:TargetCorp-Contributions")),
				algebra.URN("urn:State:FrontOrgs")))))
	plan.RetainOriginal()
	res, results := w.Ask(client, "agency:1", plan)
	if err := w.Err(); err != nil {
		return nil, err
	}
	trail, err := peer.QueryTrail(res)
	if err != nil {
		return nil, err
	}
	if !trail.Visited("irs:1") || !trail.Visited("state:1") {
		return nil, fmt.Errorf("E12: plan must visit both agencies")
	}
	// What crossed to StateDept: the reduced IRS partial = returns with
	// amount > 5000 (not the whole relation).
	exposedToState := 0
	for _, r := range returns {
		if v, err := r.Int("amount"); err == nil && v > 5000 {
			exposedToState++
		}
	}
	t.AddRow("MQP (plan travels)", len(results), exposedToState, len(results))

	// Coordinator baseline: the agency pulls both full relations.
	coordRevealed := len(returns) + len(fronts)
	t.AddRow("coordinator (pull both)", coordRevealed, 0, len(results))

	for _, r := range results {
		if r.Value("name") == "" {
			return nil, fmt.Errorf("E12: projected result missing name: %s", r)
		}
	}
	if len(results) >= exposedToState || exposedToState >= len(returns) {
		return nil, fmt.Errorf("E12: exposure ordering violated: %d results, %d exposed, %d total",
			len(results), exposedToState, len(returns))
	}
	t.Note("paper §5.2: \"Neither the IRS nor the State Department had to disclose excessive sensitive information to the agency\" — the client sees only the projected names; the coordinator baseline would expose all %d IRS returns and the full front-org list", len(returns))
	return t, nil
}
