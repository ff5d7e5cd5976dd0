package world_test

import (
	"errors"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/workload"
	"repro/internal/world"
	"repro/internal/xmltree"
)

// sellerWorld wires a meta-index, one base server under it and a client
// that knows the meta-index. pdxPlan asks for everything in the seller's
// area.
func sellerWorld() (w *world.World, client *peer.Peer, pdxPlan func(id string) *algebra.Plan) {
	ns := workload.GarageSaleNamespace()
	w = world.New(ns)
	pdx := ns.MustParseArea("[USA/OR/Portland, *]")
	w.Peer(peer.Config{Addr: "meta:1", Area: ns.Everything(), Authoritative: true})
	w.Base(peer.Config{Addr: "seller:1", Area: pdx}, peer.Collection{Name: "items", PathExp: "/d", Area: pdx,
		Items: []*xmltree.Node{xmltree.MustParse("<item><price>3</price></item>")}}, "meta:1")
	client = w.Peer(peer.Config{Addr: "client:1"})
	w.Knows(client, "meta:1", ns.Everything())
	return w, client, func(id string) *algebra.Plan {
		return algebra.NewPlan(id, "client:1", algebra.Display(algebra.URN(namespace.EncodeURN(pdx))))
	}
}

// TestWorldAnswers asks sellerWorld's meta-index for the seller's area.
func TestWorldAnswers(t *testing.T) {
	w, client, pdxPlan := sellerWorld()
	res, items := w.Ask(client, "meta:1", pdxPlan("q"))
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Value("price") != "3" || res.Partial {
		t.Fatalf("got %v (partial %v), want the seller's one item", items, res.Partial)
	}
	if len(w.Peers) != 3 || w.Peers["seller:1"] == nil {
		t.Fatalf("Peers = %v, want meta, seller and client", w.Peers)
	}
}

// TestFirstErrorSticks: a Join to an address no peer holds fails the world
// with ErrUnreachable; every later wiring call then does nothing — no peer is
// built, none is dereferenced — and Err still reports that first error.
func TestFirstErrorSticks(t *testing.T) {
	ns := workload.GarageSaleNamespace()
	w := world.New(ns)
	a := w.Peer(peer.Config{Addr: "a:1"})
	w.Join(a, "nowhere:1", catalog.RoleBase)
	first := w.Err()
	var unreachable simnet.ErrUnreachable
	if !errors.As(first, &unreachable) || unreachable.Addr != "nowhere:1" {
		t.Fatalf("Err() = %v, want ErrUnreachable for nowhere:1", first)
	}

	if p := w.Peer(peer.Config{Addr: "b:1"}); p != nil {
		t.Errorf("Peer after a failure built %s", p.Addr())
	}
	if p := w.Base(peer.Config{Addr: "c:1"}, peer.Collection{Name: "c", PathExp: "/c"}, "a:1"); p != nil {
		t.Errorf("Base after a failure built %s", p.Addr())
	}
	w.Join(nil, "a:1", catalog.RoleBase)
	w.Knows(nil, "a:1", ns.Everything())
	if res, items := w.Ask(nil, "a:1", algebra.NewPlan("q", "a:1", algebra.Display(algebra.Data()))); res.Plan != nil || items != nil {
		t.Errorf("Ask after a failure answered %v", items)
	}

	if len(w.Peers) != 1 || w.Peers["a:1"] != a {
		t.Errorf("Peers = %v, want only a:1", w.Peers)
	}
	if w.Net.Peer("b:1") != nil || w.Net.Peer("c:1") != nil {
		t.Error("a peer built after the failure joined the network")
	}
	if err := w.Err(); err != first {
		t.Errorf("Err() = %v, want the first error %v", err, first)
	}
}

// TestAskWithoutResult: a plan whose result goes to another peer leaves the
// asking client nothing to take, which Ask reports rather than answering
// empty.
func TestAskWithoutResult(t *testing.T) {
	w := world.New(workload.GarageSaleNamespace())
	client := w.Peer(peer.Config{Addr: "client:1"})
	w.Peer(peer.Config{Addr: "other:1"})
	plan := algebra.NewPlan("elsewhere", "other:1", algebra.Display(algebra.Data()))
	if _, _, err := world.Ask(client, "client:1", plan); err == nil {
		t.Fatal("Ask returned no error for a result delivered elsewhere")
	}
}

// TestAskUnknownFirstServer: asking a first server that no peer holds is an
// error the network reports as unreachable.
func TestAskUnknownFirstServer(t *testing.T) {
	w, client, pdxPlan := sellerWorld()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	var unreachable simnet.ErrUnreachable
	if _, _, err := world.Ask(client, "ghost:1", pdxPlan("ghost")); !errors.As(err, &unreachable) {
		t.Fatalf("Ask of a first server no peer holds: %v, want ErrUnreachable", err)
	}
}

// TestAskBaseServerDown: asking for an area whose one base server is down is
// an error; once that server is up again, the same question is answered.
func TestAskBaseServerDown(t *testing.T) {
	w, client, pdxPlan := sellerWorld()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	w.Net.SetDown("seller:1", true)
	if _, _, err := world.Ask(client, "meta:1", pdxPlan("down")); err == nil {
		t.Fatal("Ask with the only base server down returned no error")
	}
	w.Net.SetDown("seller:1", false)
	if _, items, err := world.Ask(client, "meta:1", pdxPlan("up")); err != nil || len(items) != 1 {
		t.Fatalf("Ask after the base server came back: %v, %v; want its one item", items, err)
	}
}
