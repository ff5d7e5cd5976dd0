package peer

import (
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/namespace"
	"repro/internal/simnet"
)

// shortcutWorld: client → meta → idx → seller, with the client configured to
// learn routing shortcuts from the provenance trails its results carry.
func shortcutWorld(t *testing.T, ccfg Config) (client *Peer, ns *namespace.Namespace) {
	t.Helper()
	net := simnet.New()
	ns = testNS()
	pdxCDs := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")

	ccfg.Addr, ccfg.Net, ccfg.NS = "client:9020", net, ns
	if ccfg.Key == nil {
		ccfg.Key = []byte("kC")
	}
	client = mustPeer(t, ccfg)
	mustPeer(t, Config{Addr: "M:9020", Net: net, NS: ns, Key: []byte("kM"),
		Area: ns.MustParseArea("[*, *]"), Authoritative: true})
	idx := mustPeer(t, Config{Addr: "idx:9020", Net: net, NS: ns, Key: []byte("kI"),
		Area: ns.MustParseArea("[USA/OR, *]")})
	if err := idx.RegisterWith("M:9020", catalog.RoleIndex); err != nil {
		t.Fatal(err)
	}
	s1 := mustPeer(t, Config{Addr: "s1:9020", Net: net, NS: ns, Key: []byte("k1"), Area: pdxCDs})
	s1.AddCollection(Collection{Name: "cds", PathExp: "/data[id=1]", Area: pdxCDs, Items: items(
		`<sale><cd>Blue Train</cd><price>8</price></sale>`,
	)})
	if err := s1.RegisterWith("idx:9020", catalog.RoleBase); err != nil {
		t.Fatal(err)
	}
	if err := client.Catalog().Register(catalog.Registration{
		Addr: "M:9020", Role: catalog.RoleMetaIndex,
		Area: ns.MustParseArea("[*, *]"), Authoritative: true,
	}); err != nil {
		t.Fatal(err)
	}
	return client, ns
}

func areaQuery(id string, ns *namespace.Namespace) *algebra.Plan {
	urn := namespace.EncodeURN(ns.MustParseArea("[USA/OR/Portland, Music/CDs]"))
	return algebra.NewPlan(id, "client:9020", algebra.Display(
		algebra.Select(algebra.MustParsePredicate("price < 100"), algebra.URN(urn))))
}

// TestPeerMinesShortcutsAndAbsorbs: a learning client distills (area →
// server) edges from the trails of its own results; once an edge is
// confirmed absorbThreshold times it becomes a real index registration in
// the client's catalog — the meta-index update the learning feeds.
func TestPeerMinesShortcutsAndAbsorbs(t *testing.T) {
	client, ns := shortcutWorld(t, Config{LearnShortcuts: true})
	urn := namespace.EncodeURN(ns.MustParseArea("[USA/OR/Portland, Music/CDs]"))

	if client.Shortcuts() == nil {
		t.Fatal("LearnShortcuts peer has no shortcut table")
	}
	if err := client.Submit("M:9020", areaQuery("sq-1", ns)); err != nil {
		t.Fatal(err)
	}
	if _, ok := client.TakeResult(); !ok {
		t.Fatal("no result delivered")
	}
	st := client.Shortcuts().Stats()
	if st.Learned == 0 || st.Entries == 0 {
		t.Fatalf("nothing mined from the trail: %+v", st)
	}
	gen := client.Catalog().Generation()
	if srv, ok := client.Shortcuts().Lookup(urn, gen, time.Minute); !ok || srv != "idx:9020" {
		t.Fatalf("lookup(%s) = %q, %v; want the binding index idx:9020", urn, srv, ok)
	}
	// One confirmation is below the threshold: no catalog mutation yet.
	for _, r := range client.Catalog().Registrations() {
		if r.Addr == "idx:9020" {
			t.Fatalf("shortcut absorbed below threshold: %+v", r)
		}
	}

	// The second confirmation crosses the threshold and is absorbed.
	if err := client.Submit("M:9020", areaQuery("sq-2", ns)); err != nil {
		t.Fatal(err)
	}
	if _, ok := client.TakeResult(); !ok {
		t.Fatal("no result delivered")
	}
	area := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
	absorbed := false
	for _, r := range client.Catalog().Registrations() {
		if r.Addr == "idx:9020" && r.Role == catalog.RoleIndex && r.Area.Covers(area) {
			absorbed = true
		}
	}
	if !absorbed {
		t.Fatalf("confirmed shortcut not absorbed into the catalog: %+v",
			client.Catalog().Registrations())
	}
}

// TestMiningRejectsUnverifiableTrail: with a keyring configured, a trail
// that fails HMAC verification teaches nothing — learned routing cannot be
// poisoned by servers whose records don't verify.
func TestMiningRejectsUnverifiableTrail(t *testing.T) {
	client, ns := shortcutWorld(t, Config{LearnShortcuts: true,
		Keyring: func(server string) []byte { return []byte("not-the-signing-key") }})
	if err := client.Submit("M:9020", areaQuery("bad-1", ns)); err != nil {
		t.Fatal(err)
	}
	if _, ok := client.TakeResult(); !ok {
		t.Fatal("no result delivered")
	}
	if st := client.Shortcuts().Stats(); st.Learned != 0 || st.Entries != 0 {
		t.Fatalf("unverifiable trail was mined anyway: %+v", st)
	}
}

// TestDeregisterFromInvalidatesShortcutsAndCatalog: a graceful leave drops
// the leaver's registrations at the server AND invalidates learned shortcuts
// pointing at it — the leave path must not leave the learned tier routing
// into a hole.
func TestDeregisterFromInvalidatesShortcutsAndCatalog(t *testing.T) {
	net := simnet.New()
	ns := testNS()
	pdxCDs := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
	idx := mustPeer(t, Config{Addr: "idx:9020", Net: net, NS: ns, Key: []byte("kI"),
		Area: ns.MustParseArea("[USA/OR, *]"), LearnShortcuts: true})
	s1 := mustPeer(t, Config{Addr: "s1:9020", Net: net, NS: ns, Key: []byte("k1"), Area: pdxCDs})
	s1.AddCollection(Collection{Name: "cds", PathExp: "/d", Area: pdxCDs,
		Items: items(`<sale><cd>x</cd><price>1</price></sale>`)})
	if err := s1.RegisterWith("idx:9020", catalog.RoleBase); err != nil {
		t.Fatal(err)
	}
	urn := namespace.EncodeURN(pdxCDs)
	idx.Shortcuts().Learn(urn, "s1:9020", idx.Catalog().Generation(), 0)

	if err := s1.DeregisterFrom("idx:9020", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, r := range idx.Catalog().Registrations() {
		if r.Addr == "s1:9020" {
			t.Fatalf("deregistered peer still in the catalog: %+v", r)
		}
	}
	if srv, ok := idx.Shortcuts().Lookup(urn, idx.Catalog().Generation(), time.Millisecond); ok {
		t.Fatalf("shortcut to the departed peer survived the leave: %q", srv)
	}
	// The leaver also forgot the server as a cached index.
	for _, r := range s1.Catalog().Registrations() {
		if r.Addr == "idx:9020" {
			t.Fatalf("leaver still routes via the left server: %+v", r)
		}
	}
}

// TestSupersedeInvalidatesShortcuts: when a promoted replica re-registers
// with Supersedes=<dead source>, learned shortcuts pointing at the dead
// source are invalidated in the same delivery that swaps the registration.
func TestSupersedeInvalidatesShortcuts(t *testing.T) {
	net, ns, src, rep := replicaWorld(t)
	area := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
	if err := rep.ReplicateFrom("src:1", "/d", Collection{Name: "cds", PathExp: "/d", Area: area}, 45); err != nil {
		t.Fatal(err)
	}
	meta := mustPeer(t, Config{Addr: "M:1", Net: net, NS: ns, Key: []byte("kM"),
		Area: ns.MustParseArea("[USA, *]"), Authoritative: true, LearnShortcuts: true})
	if err := src.RegisterWith("M:1", catalog.RoleBase); err != nil {
		t.Fatal(err)
	}
	urn := namespace.EncodeURN(area)
	meta.Shortcuts().Learn(urn, "src:1", meta.Catalog().Generation(), 0)

	if err := rep.Promote("/d", "src:1", "M:1", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if srv, ok := meta.Shortcuts().Lookup(urn, meta.Catalog().Generation(), time.Millisecond); ok {
		t.Fatalf("shortcut to the superseded source survived promotion: %q", srv)
	}
	if st := meta.Shortcuts().Stats(); st.Invalidated == 0 {
		t.Fatalf("supersede did not count an invalidation: %+v", st)
	}
}
