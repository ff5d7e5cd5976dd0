package peer

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/namespace"
	"repro/internal/simnet"
	"repro/internal/xmltree"
)

// TestFallbackRoutingSurvivesDownIndex: the client knows two index servers
// covering the same area; the preferred one is down, and the plan must
// complete via the fallback (§1: failure of a single server does not
// disable the system).
func TestFallbackRoutingSurvivesDownIndex(t *testing.T) {
	net, _, ns := cdWorld(t)
	// A second meta server with the same knowledge as M.
	meta2 := mustPeer(t, Config{Addr: "M2:9020", Net: net, NS: ns, PushSelect: true,
		Key: []byte("kM2"), Area: ns.MustParseArea("[USA, *]"), Authoritative: true})
	pdxCDs := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
	for _, s := range []string{"s1:9020", "s2:9020"} {
		sp, _ := net.Peer(s).(*Peer)
		if sp == nil {
			t.Fatalf("peer %s missing", s)
		}
		if err := sp.RegisterWith("M2:9020", catalog.RoleBase); err != nil {
			t.Fatal(err)
		}
	}
	_ = meta2

	// A fresh client that knows both meta servers, in preference order.
	client := mustPeer(t, Config{Addr: "client2:9020", Net: net, NS: ns, Key: []byte("kC2")})
	for _, m := range []string{"M:9020", "M2:9020"} {
		if err := client.Catalog().Register(catalog.Registration{
			Addr: m, Role: catalog.RoleMetaIndex,
			Area: ns.MustParseArea("[USA, *]"), Authoritative: true,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the preferred meta server.
	net.SetDown("M:9020", true)
	plan := algebra.NewPlan("fallback-q", "client2:9020",
		algebra.Display(algebra.Count(algebra.URN(namespace.EncodeURN(pdxCDs)))))
	if err := client.Submit("client2:9020", plan); err != nil {
		t.Fatalf("query with down meta should fall back: %v", err)
	}
	res, ok := client.TakeResult()
	if !ok {
		t.Fatal("no result")
	}
	got, err := res.Plan.Results()
	if err != nil || got[0].InnerText() != "3" {
		t.Fatalf("count = %v %v", got, err)
	}
	// The trail must show M2, not M.
	trail, err := QueryTrail(res)
	if err != nil {
		t.Fatal(err)
	}
	if trail.Visited("M:9020") || !trail.Visited("M2:9020") {
		t.Fatalf("trail = %+v", trail.Visits)
	}
}

// TestAllHopsDownSurfacesError: when every candidate is unreachable the peer
// that tried them records the plan as stuck. Here that is the submitter, which
// sent the plan to itself first; its Submit, a send that reached its
// receiver, reports nothing.
func TestAllHopsDownSurfacesError(t *testing.T) {
	net, client, ns := cdWorld(t)
	net.SetDown("M:9020", true)
	plan := algebra.NewPlan("q", "client:9020",
		algebra.Display(algebra.Count(algebra.URN(namespace.EncodeURN(
			ns.MustParseArea("[USA/OR/Portland, Music/CDs]"))))))
	if err := client.Submit("client:9020", plan); err != nil {
		t.Fatalf("Submit = %v: a sender learns only transport failure", err)
	}
	stuck := client.StuckErrors()
	if len(stuck) != 1 || !strings.Contains(stuck[0].Error(), `next hops unreachable for plan "q"`) {
		t.Fatalf("stuck record = %v, want the plan stuck with every next hop unreachable", stuck)
	}
}

// TestUndeliverableResultSurfacesAsStuck: a plan whose answer exists but
// whose owner is unreachable must not vanish — the finishing peer records it
// in StuckErrors with the plan id, the attribution the chaos harness's
// no-silent-loss invariant relies on.
func TestUndeliverableResultSurfacesAsStuck(t *testing.T) {
	net, client, ns := cdWorld(t)
	net.SetDown("client:9020", true)
	plan := algebra.NewPlan("orphan-q", "client:9020",
		algebra.Display(algebra.Count(algebra.URN(namespace.EncodeURN(
			ns.MustParseArea("[USA/OR/Portland, Music/CDs]"))))))
	// Submit from the meta server's side: the client being down must not
	// stop the query from being evaluated, only the result delivery. The
	// sender reached M, so it learns nothing of what happened downstream.
	if err := net.Send(&simnet.Message{From: "x", To: "M:9020", Kind: KindMQP, Body: algebra.Marshal(plan)}); err != nil {
		t.Fatalf("Send = %v: a sender learns only transport failure", err)
	}
	stuck := 0
	for _, p := range []string{"M:9020", "s1:9020", "s2:9020"} {
		sp, _ := net.Peer(p).(*Peer)
		for _, serr := range sp.StuckErrors() {
			if strings.Contains(serr.Error(), `result for plan "orphan-q" undeliverable`) {
				stuck++
			}
		}
	}
	if stuck != 1 {
		t.Fatalf("undeliverable result recorded %d times in StuckErrors, want once", stuck)
	}
	_ = client
}

// TestRemainderChainAcrossStates: a two-cell area spanning two authoritative
// index servers is answered completely by remainder chaining.
func TestRemainderChainAcrossStates(t *testing.T) {
	net, _, ns := cdWorld(t)
	// Build two state index servers with their own base servers.
	orArea := ns.MustParseArea("[USA/OR, *]")
	waArea := ns.MustParseArea("[USA/WA, *]")
	idxOR := mustPeer(t, Config{Addr: "idxOR:1", Net: net, NS: ns, PushSelect: true,
		Area: orArea, Authoritative: true, Key: []byte("kOR")})
	idxWA := mustPeer(t, Config{Addr: "idxWA:1", Net: net, NS: ns, PushSelect: true,
		Area: waArea, Authoritative: true, Key: []byte("kWA")})
	_ = idxWA

	mkBase := func(addr, areaStr string, n int) {
		area := ns.MustParseArea(areaStr)
		b := mustPeer(t, Config{Addr: addr, Net: net, NS: ns, PushSelect: true, Area: area, Key: []byte(addr)})
		var docs []string
		for i := 0; i < n; i++ {
			docs = append(docs, fmt.Sprintf(`<item><n>%s-%d</n></item>`, addr, i))
		}
		b.AddCollection(Collection{Name: "c", PathExp: "/d", Area: area, Items: items(docs...)})
		var idx string
		if area.Overlaps(orArea) {
			idx = "idxOR:1"
		} else {
			idx = "idxWA:1"
		}
		if err := b.RegisterWith(idx, catalog.RoleBase); err != nil {
			t.Fatal(err)
		}
	}
	mkBase("or1:1", "[USA/OR/Portland, Furniture/Chairs]", 3)
	mkBase("wa1:1", "[USA/WA/Seattle, Furniture/Chairs]", 4)

	// Both index servers know each other via a shared meta.
	shared := mustPeer(t, Config{Addr: "shared-meta:1", Net: net, NS: ns, PushSelect: true,
		Area: ns.MustParseArea("[USA, *]"), Authoritative: true, Key: []byte("kSM")})
	_ = shared
	for _, idx := range []*Peer{idxOR, idxWA} {
		if err := idx.RegisterWith("shared-meta:1", catalog.RoleIndex); err != nil {
			t.Fatal(err)
		}
		if err := idx.Catalog().Register(catalog.Registration{
			Addr: "shared-meta:1", Role: catalog.RoleMetaIndex,
			Area: ns.MustParseArea("[USA, *]"), Authoritative: true,
		}); err != nil {
			t.Fatal(err)
		}
	}

	client := mustPeer(t, Config{Addr: "c2:1", Net: net, NS: ns, Key: []byte("kc2")})
	if err := client.Catalog().Register(catalog.Registration{
		Addr: "shared-meta:1", Role: catalog.RoleMetaIndex,
		Area: ns.MustParseArea("[USA, *]"), Authoritative: true,
	}); err != nil {
		t.Fatal(err)
	}

	area := ns.MustParseArea("[USA/OR/Portland, Furniture/Chairs] + [USA/WA/Seattle, Furniture/Chairs]")
	plan := algebra.NewPlan("span-q", "c2:1",
		algebra.Display(algebra.Count(algebra.URN(namespace.EncodeURN(area)))))
	plan.RetainOriginal()
	if err := client.Submit("c2:1", plan); err != nil {
		t.Fatal(err)
	}
	res, ok := client.TakeResult()
	if !ok {
		t.Fatal("no result")
	}
	got, err := res.Plan.Results()
	if err != nil {
		t.Fatal(err)
	}
	if got[0].InnerText() != "7" {
		t.Fatalf("count = %s, want 7 (3 Oregon + 4 Washington)", got[0].InnerText())
	}
	trail, err := QueryTrail(res)
	if err != nil {
		t.Fatal(err)
	}
	if !trail.Visited("or1:1") || !trail.Visited("wa1:1") {
		t.Fatalf("both base servers must contribute: %+v", trail.Visits)
	}
}

// TestStuckRecordBounded: the stuck record keeps the newest maxStuck entries,
// each once, and counts what it dropped — a daemon that fails a million
// distinct plans holds a thousand of them.
func TestStuckRecordBounded(t *testing.T) {
	p := mustPeer(t, Config{Addr: "p:1", Net: simnet.New(), NS: testNS()})
	const over = 10
	failed := func(i int) error { return fmt.Errorf("plan \"q%d\" failed", i) }
	for i := 0; i < maxStuck+over; i++ {
		p.noteStuck(failed(i))
		p.noteStuck(failed(i)) // a duplicate is one entry
	}
	got := p.StuckErrors()
	if len(got) != maxStuck || p.stuckDropped != over {
		t.Fatalf("kept %d, dropped %d; want %d, %d", len(got), p.stuckDropped, maxStuck, over)
	}
	first, last := failed(over).Error(), failed(maxStuck+over-1).Error()
	if got[0].Error() != first || got[maxStuck-1].Error() != last {
		t.Fatalf("kept %v … %v, want %s … %s", got[0], got[maxStuck-1], first, last)
	}
}

// TestRefusedFramesRecorded: on a scheduled network the sender never sees what
// Deliver returns, so every frame a peer refuses must leave its own record.
func TestRefusedFramesRecorded(t *testing.T) {
	net := simnet.New()
	net.UseScheduler(1)
	p := mustPeer(t, Config{Addr: "p:1", Net: net, NS: testNS()})
	mustPeer(t, Config{Addr: "snd:1", Net: net, NS: testNS()})
	refused := []struct{ kind, body, want string }{
		{KindRegister, `<registration/>`, "bad registration"},
		{KindDeregister, `<deregister/>`, "deregister without addr"},
		{"gossip", `<gossip/>`, "unknown message kind"},
		{KindMQP, `<notaplan/>`, "bad mqp"},
		// A result is the <mqp> it is: one addressed here whose plan does
		// not build is refused as a bad mqp too.
		{KindMQP, `<mqp id="r" target="p:1"><plan><nosuchop/></plan></mqp>`, `bad mqp`},
	}
	for _, r := range refused {
		if err := net.Send(&simnet.Message{From: "snd:1", To: p.addr, Kind: r.kind,
			Body: xmltree.MustParse(r.body)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	got := p.StuckErrors()
	if len(got) != len(refused) {
		t.Fatalf("stuck record = %v, want one entry per refused frame (%d)", got, len(refused))
	}
	for i, r := range refused {
		if !strings.Contains(got[i].Error(), r.want) {
			t.Errorf("entry %d = %v, want it to name %q", i, got[i], r.want)
		}
	}
}

// TestResultsBounded: results nobody takes (a daemon is sent them and never
// calls TakeResult) keep the newest maxResults, count what was dropped, and
// still pop oldest first.
func TestResultsBounded(t *testing.T) {
	net := simnet.New()
	p := mustPeer(t, Config{Addr: "p:1", Net: net, NS: testNS()})
	const over = 10
	for i := 0; i < maxResults+over; i++ {
		res := algebra.NewPlan(fmt.Sprintf("r%d", i), "p:1", algebra.Display(algebra.Data()))
		body := xmltree.MustParse(algebra.EncodeString(res)).Freeze()
		if err := p.Deliver(net, &simnet.Message{From: "s:1", To: "p:1", Kind: KindMQP, Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	got := p.Results()
	if len(got) != maxResults || p.resultsDropped != over {
		t.Fatalf("kept %d, dropped %d; want %d, %d", len(got), p.resultsDropped, maxResults, over)
	}
	if first, last := got[0].Plan.ID, got[maxResults-1].Plan.ID; first != fmt.Sprintf("r%d", over) ||
		last != fmt.Sprintf("r%d", maxResults+over-1) {
		t.Fatalf("kept %s … %s, want r%d … r%d", first, last, over, maxResults+over-1)
	}
	for i := over; i < over+3; i++ {
		if r, ok := p.TakeResult(); !ok || r.Plan.ID != fmt.Sprintf("r%d", i) {
			t.Fatalf("TakeResult = %v %v, want r%d", r.Plan, ok, i)
		}
	}
}
