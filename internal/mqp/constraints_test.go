package mqp

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/route"
)

// TestTransferPolicyBlocksProcessing: a plan restricted to a server list
// refuses to be processed elsewhere (§5.2 "only let this MQP pass through
// servers on this list").
func TestTransferPolicyBlocksProcessing(t *testing.T) {
	ns := testNS()
	p := mustProc(t, Config{Self: "outsider:1", Catalog: catalog.New(ns, "outsider:1")})
	plan := algebra.NewPlan("q", "c:1", algebra.Display(algebra.URN("urn:X")))
	route.RestrictServers(plan, "irs:1", "state:1")
	if _, err := p.Step(plan); err == nil || !strings.Contains(err.Error(), "transfer policy") {
		t.Fatalf("want transfer-policy error, got %v", err)
	}
	// An allowed server processes normally.
	allowed := mustProc(t, Config{Self: "irs:1", Catalog: catalog.New(ns, "irs:1")})
	if _, err := allowed.Step(plan); err != nil && strings.Contains(err.Error(), "transfer policy") {
		t.Fatalf("allowed server rejected: %v", err)
	}
}

// TestTransferPolicyFiltersHops: forwarding candidates outside the allowed
// list are dropped.
func TestTransferPolicyFiltersHops(t *testing.T) {
	ns := testNS()
	st := store{"": items(`<i><v>1</v></i>`)}
	p := mustProc(t, Config{Self: "irs:1", Catalog: catalog.New(ns, "irs:1"), FetchLocal: st.fetch})
	plan := algebra.NewPlan("q", "c:1", algebra.Display(algebra.Union(
		algebra.URL("irs:1", ""),
		algebra.URL("state:1", ""),
		algebra.URL("leaky:1", ""),
	)))
	route.RestrictServers(plan, "irs:1", "state:1")
	out, err := p.Step(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.NextHops) != 1 || out.NextHops[0] != "state:1" {
		t.Fatalf("next hops = %v (leaky:1 must be filtered)", out.NextHops)
	}
}

// TestTransferPolicyRoundTrips: the policy survives plan serialization.
func TestTransferPolicyRoundTrips(t *testing.T) {
	plan := algebra.NewPlan("q", "c:1", algebra.Display(algebra.Data()))
	route.RestrictServers(plan, "a:1", "b:1")
	back, err := algebra.DecodeString(algebra.EncodeString(plan))
	if err != nil {
		t.Fatal(err)
	}
	got := route.AllowedServers(back)
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:1" {
		t.Fatalf("allowed = %v", got)
	}
	if route.AllowedServers(algebra.NewPlan("q", "c", algebra.Display(algebra.Data()))) != nil {
		t.Fatal("unrestricted plan must return nil")
	}
}

// TestBindAfterOrdering: "do not bind preferences until playlist is bound"
// — the later URN stays a leaf while the earlier one is still in the plan.
func TestBindAfterOrdering(t *testing.T) {
	ns := testNS()
	cat := catalog.New(ns, "s:1")
	cat.AddAlias("urn:Preferences", "http://prefs:1/d")
	// The playlist URN cannot be bound here (unknown), so the preferences
	// URN must stay unbound too.
	if err := cat.Register(catalog.Registration{
		Addr: "meta:1", Role: catalog.RoleMetaIndex,
		Area: ns.MustParseArea("[USA, *]"), Authoritative: true,
	}); err != nil {
		t.Fatal(err)
	}
	p := mustProc(t, Config{Self: "s:1", Catalog: cat})
	plan := algebra.NewPlan("q", "c:1", algebra.Display(algebra.JoinNamed(
		"song", "song", "pref", "track",
		algebra.URN("urn:Preferences"),
		algebra.URN("urn:Playlist"),
	)))
	BindAfter(plan, "urn:Preferences", "urn:Playlist")
	out, err := p.Step(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.Bound != 0 {
		t.Fatalf("bound = %d; preferences must defer to playlist", out.Bound)
	}
	urns := plan.Root.URNs()
	if len(urns) != 2 {
		t.Fatalf("urns = %v", urns)
	}

	// Once the playlist is bound (simulate another server's work), the
	// preferences URN binds.
	plan2 := algebra.NewPlan("q2", "c:1", algebra.Display(algebra.JoinNamed(
		"song", "song", "pref", "track",
		algebra.URN("urn:Preferences"),
		algebra.Data(items(`<track><song>A</song></track>`)...),
	)))
	BindAfter(plan2, "urn:Preferences", "urn:Playlist")
	out, err = p.Step(plan2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Bound != 1 {
		t.Fatalf("bound = %d; prerequisite satisfied, preferences should bind", out.Bound)
	}
}

// TestBindAfterAccumulates: multiple ordering constraints coexist.
func TestBindAfterAccumulates(t *testing.T) {
	plan := algebra.NewPlan("q", "c:1", algebra.Display(algebra.Union(
		algebra.URN("urn:A"), algebra.URN("urn:B"), algebra.URN("urn:C"))))
	BindAfter(plan, "urn:A", "urn:B")
	BindAfter(plan, "urn:B", "urn:C")
	if !bindDeferred(plan, "urn:A") || !bindDeferred(plan, "urn:B") {
		t.Fatal("both constraints must defer")
	}
	if bindDeferred(plan, "urn:C") {
		t.Fatal("urn:C has no prerequisite")
	}
}
