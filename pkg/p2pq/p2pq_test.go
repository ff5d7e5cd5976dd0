package p2pq

import (
	"strings"
	"testing"
)

func garageNS(t *testing.T) *Namespace {
	t.Helper()
	ns, err := NewNamespace(
		Dimension("Location", "USA/OR/Portland", "USA/WA/Seattle"),
		Dimension("Merchandise", "Music/CDs", "Furniture/Chairs"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

func TestNamespaceErrors(t *testing.T) {
	if _, err := NewNamespace(); err == nil {
		t.Fatal("empty namespace must error")
	}
	if _, err := NewNamespace(Dimension("L", "a//b")); err == nil {
		t.Fatal("bad path must error")
	}
	ns := garageNS(t)
	urn, err := ns.AreaURN("[USA/OR/Portland, Music/CDs]")
	if err != nil || !strings.HasPrefix(urn, "urn:InterestArea:") {
		t.Fatalf("AreaURN = %q, %v", urn, err)
	}
	if _, err := ns.AreaURN("[USA]"); err == nil {
		t.Fatal("wrong arity must error")
	}
}

func TestEndToEndQuickstart(t *testing.T) {
	ns := garageNS(t)
	sys := NewSystem(ns)

	meta, err := sys.AddPeer(PeerOptions{Addr: "meta:9020", Area: "[*, *]", Authoritative: true})
	if err != nil {
		t.Fatal(err)
	}
	seller, err := sys.AddPeer(PeerOptions{Addr: "seller:9020", Area: "[USA/OR/Portland, Music/CDs]"})
	if err != nil {
		t.Fatal(err)
	}
	if err := seller.Publish("cds", "/data[id=1]", "[USA/OR/Portland, Music/CDs]",
		BuildItem("sale", "cd", "Blue Train", "price", "8"),
		BuildItem("sale", "cd", "Kind of Blue", "price", "15"),
	); err != nil {
		t.Fatal(err)
	}
	if err := seller.JoinVia(meta.Addr()); err != nil {
		t.Fatal(err)
	}
	client, err := sys.AddPeer(PeerOptions{Addr: "me:9020", Knows: []string{meta.Addr()}})
	if err != nil {
		t.Fatal(err)
	}

	res, err := client.Query(
		ScanArea("[USA/OR/Portland, Music/CDs]").
			Where("price < 10").
			Plan("q1", client.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || res.Items[0].Value("cd") != "Blue Train" {
		t.Fatalf("items = %v", res.Items)
	}
	if res.Latency <= 0 || res.Hops < 2 {
		t.Fatalf("latency=%v hops=%d", res.Latency, res.Hops)
	}
	if sys.Metrics().Messages == 0 {
		t.Fatal("no network traffic recorded")
	}
}

func TestBuilderOperators(t *testing.T) {
	ns := garageNS(t)
	sys := NewSystem(ns)
	meta, _ := sys.AddPeer(PeerOptions{Addr: "meta:1", Area: "[*, *]", Authoritative: true})
	s, _ := sys.AddPeer(PeerOptions{Addr: "s:1", Area: "[USA/OR/Portland, Music/CDs]"})
	_ = s.Publish("cds", "/d", "[USA/OR/Portland, Music/CDs]",
		BuildItem("sale", "cd", "A", "price", "5"),
		BuildItem("sale", "cd", "B", "price", "7"),
		BuildItem("sale", "cd", "C", "price", "9"),
	)
	_ = s.JoinVia(meta.Addr())
	client, _ := sys.AddPeer(PeerOptions{Addr: "c:1", Knows: []string{meta.Addr()}})

	// Count.
	res, err := client.Query(ScanArea("[USA/OR/Portland, Music/CDs]").Count().Plan("q-count", client.Addr()))
	if err != nil || res.Items[0].InnerText() != "3" {
		t.Fatalf("count = %v %v", res.Items, err)
	}
	// TopN + Project.
	res, err = client.Query(
		ScanArea("[USA/OR/Portland, Music/CDs]").
			Top(2, "price", true).
			Project("pick", "cd").
			Plan("q-top", client.Addr()))
	if err != nil || len(res.Items) != 2 || res.Items[0].Value("cd") != "C" {
		t.Fatalf("top = %v %v", res.Items, err)
	}
	// Join with embedded items.
	favs := Items(BuildItem("fav", "want", "B"))
	res, err = client.Query(
		favs.Join(ScanArea("[USA/OR/Portland, Music/CDs]"), "want", "cd", "wish", "offer").
			Plan("q-join", client.Addr()))
	if err != nil || len(res.Items) != 1 || res.Items[0].Value("offer/price") != "7" {
		t.Fatalf("join = %v %v", res.Items, err)
	}
	// Union.
	res, err = client.Query(
		Items(BuildItem("x", "v", "1")).UnionWith(Items(BuildItem("x", "v", "2"))).
			Plan("q-union", client.Addr()))
	if err != nil || len(res.Items) != 2 {
		t.Fatalf("union = %v %v", res.Items, err)
	}
}

func TestBuilderErrorsSurface(t *testing.T) {
	b := ScanArea("[USA/OR/Portland, Music/CDs]").Where("price <")
	if b.Err() == nil {
		t.Fatal("bad predicate must set builder error")
	}
	plan := b.Plan("q", "t:1")
	if err := plan.Validate(); err == nil {
		t.Fatal("plan from broken builder must not validate")
	}
	if ScanArea("").Err() == nil {
		t.Fatal("empty area must error")
	}
}

// TestQueryRefusesBrokenBuilder: a plan from a builder that recorded an
// error has no operator tree; Query returns the validation error instead of
// staging the plan.
func TestQueryRefusesBrokenBuilder(t *testing.T) {
	sys := NewSystem(garageNS(t))
	client, err := sys.AddPeer(PeerOptions{Addr: "me:9020"})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*Builder{
		ScanArea("[USA/OR/Portland, Music/CDs]").Where("price <"),
		ScanArea(""),
	} {
		if _, err := client.Query(b.Plan("q", client.Addr())); err == nil {
			t.Fatal("query of a broken builder's plan must error")
		}
	}
}

func TestQueryNoResultOnUnknownServer(t *testing.T) {
	ns := garageNS(t)
	sys := NewSystem(ns)
	client, _ := sys.AddPeer(PeerOptions{Addr: "c:1"})
	_, err := client.QueryVia("ghost:1", ScanURN("urn:X").Plan("q", client.Addr()))
	if err == nil {
		t.Fatal("unknown first server must error")
	}
}

func TestDeclareStatement(t *testing.T) {
	ns := garageNS(t)
	sys := NewSystem(ns)
	meta, _ := sys.AddPeer(PeerOptions{Addr: "m:1", Area: "[*, *]", Authoritative: true})
	r, _ := sys.AddPeer(PeerOptions{Addr: "r:1", Area: "[USA/OR/Portland, *]"})
	if err := r.Declare(meta.Addr(),
		"base[USA/OR/Portland, *]@r:1 >= base[USA/OR/Portland, *]@s:1{30}"); err != nil {
		t.Fatal(err)
	}
	if err := r.Declare(meta.Addr(), "garbage"); err == nil {
		t.Fatal("bad statement must error")
	}
	if err := r.Declare("ghost:1", "base[USA/OR/Portland, *]@r:1 = base[USA/OR/Portland, *]@s:1"); err == nil {
		t.Fatal("unknown target must error")
	}
}

func TestFaultToleranceSetDown(t *testing.T) {
	ns := garageNS(t)
	sys := NewSystem(ns)
	meta, _ := sys.AddPeer(PeerOptions{Addr: "m:1", Area: "[*, *]", Authoritative: true})
	s1, _ := sys.AddPeer(PeerOptions{Addr: "s1:1", Area: "[USA/OR/Portland, Music/CDs]"})
	_ = s1.Publish("cds", "/d", "[USA/OR/Portland, Music/CDs]", BuildItem("sale", "cd", "A", "price", "5"))
	_ = s1.JoinVia(meta.Addr())
	client, _ := sys.AddPeer(PeerOptions{Addr: "c:1", Knows: []string{meta.Addr()}})

	sys.SetDown("s1:1", true)
	_, err := client.Query(ScanArea("[USA/OR/Portland, Music/CDs]").Count().Plan("q", client.Addr()))
	if err == nil {
		t.Fatal("query through a down base server should fail")
	}
	sys.SetDown("s1:1", false)
	res, err := client.Query(ScanArea("[USA/OR/Portland, Music/CDs]").Count().Plan("q2", client.Addr()))
	if err != nil || res.Items[0].InnerText() != "1" {
		t.Fatalf("recovered query = %v %v", res.Items, err)
	}
}
