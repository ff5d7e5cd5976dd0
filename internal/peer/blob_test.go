package peer

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/blobstore"
	"repro/internal/catalog"
	"repro/internal/namespace"
	"repro/internal/simnet"
	"repro/internal/xmltree"
)

// bigSale builds a payload document comfortably above blobMinBytes, so it
// is eligible for teaching and by-reference shipping.
func bigSale(name string, price int) string {
	return fmt.Sprintf(`<sale><cd>%s</cd><price>%d</price><desc>%s</desc></sale>`,
		name, price, strings.Repeat("A fine recording. ", 8))
}

// blobWorld is cdWorld's two-seller topology with every peer carrying a
// content-addressed payload store. Returns the per-peer stores keyed by
// address for residency assertions.
func blobWorld(t *testing.T) (*simnet.Network, *Peer, map[string]*blobstore.Store, *namespace.Namespace) {
	t.Helper()
	net := simnet.New()
	ns := testNS()
	pdxCDs := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
	stores := map[string]*blobstore.Store{}
	mk := func(addr string) *blobstore.Store {
		s := blobstore.New()
		stores[addr] = s
		return s
	}

	client := mustPeer(t, Config{Addr: "client:9020", Net: net, NS: ns, Key: []byte("kC"),
		Blobs: mk("client:9020")})
	meta := mustPeer(t, Config{Addr: "M:9020", Net: net, NS: ns, PushSelect: true, Key: []byte("kM"),
		Area: ns.MustParseArea("[USA, *]"), Authoritative: true, Blobs: mk("M:9020")})
	s1 := mustPeer(t, Config{Addr: "s1:9020", Net: net, NS: ns, PushSelect: true, Key: []byte("k1"),
		Area: pdxCDs, Blobs: mk("s1:9020")})
	s2 := mustPeer(t, Config{Addr: "s2:9020", Net: net, NS: ns, PushSelect: true, Key: []byte("k2"),
		Area: pdxCDs, Blobs: mk("s2:9020")})

	s1.AddCollection(Collection{Name: "cds", PathExp: "/data[id=1]", Area: pdxCDs, Items: items(
		bigSale("Blue Train", 8),
		bigSale("Kind of Blue", 15),
	)})
	s2.AddCollection(Collection{Name: "cds", PathExp: "/data[id=2]", Area: pdxCDs, Items: items(
		bigSale("Giant Steps", 9),
	)})
	if err := s1.RegisterWith("M:9020", catalog.RoleBase); err != nil {
		t.Fatal(err)
	}
	if err := s2.RegisterWith("M:9020", catalog.RoleBase); err != nil {
		t.Fatal(err)
	}
	meta.Catalog().AddAlias("urn:ForSale:Portland-CDs", namespace.EncodeURN(pdxCDs))
	if err := client.Catalog().Register(catalog.Registration{
		Addr: "M:9020", Role: catalog.RoleMetaIndex,
		Area: ns.MustParseArea("[USA, *]"), Authoritative: true,
	}); err != nil {
		t.Fatal(err)
	}
	return net, client, stores, ns
}

// blobFetches sums the fetch-on-miss requests every peer on net issued.
func blobFetches(net *simnet.Network) (n uint64) {
	for _, addr := range net.Addrs() {
		n += net.Peer(addr).(*Peer).BlobNetStats().Fetches
	}
	return n
}

// resident reports whether fp has an entry in s.
func resident(s *blobstore.Store, fp blobstore.FP) bool {
	_, ok := s.Get(fp)
	return ok
}

func blobQuery(id string) *algebra.Plan {
	return algebra.NewPlan(id, "client:9020",
		algebra.Display(algebra.Select(algebra.MustParsePredicate("price < 10"),
			algebra.URN("urn:ForSale:Portland-CDs"))))
}

func runBlobQuery(t *testing.T, client *Peer, id string) []*xmltree.Node {
	t.Helper()
	if err := client.Submit("M:9020", blobQuery(id)); err != nil {
		t.Fatal(err)
	}
	res, ok := client.TakeResult()
	if !ok {
		t.Fatalf("query %s: no result", id)
	}
	got, err := res.Plan.Results()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestBlobByRefSecondQuery: the first query ships payloads inline and
// teaches both ends; a repeat of the same query ships them by reference,
// resolved from the receiver's store, with identical results.
func TestBlobByRefSecondQuery(t *testing.T) {
	net, client, stores, _ := blobWorld(t)

	first := runBlobQuery(t, client, "q1")
	if len(first) != 2 {
		t.Fatalf("first query: %d results, want 2", len(first))
	}
	refsBefore := client.BlobNetStats().RefsResolved

	second := runBlobQuery(t, client, "q2")
	if len(second) != 2 {
		t.Fatalf("second query: %d results, want 2", len(second))
	}
	for i := range first {
		if first[i].String() != second[i].String() {
			t.Fatalf("result %d diverged between runs:\n %s\n %s",
				i, first[i], second[i])
		}
	}

	// Someone on the result path shipped the repeat freight by reference…
	var byRef uint64
	var bytes int64
	for _, addr := range net.Addrs() {
		st := net.Peer(addr).(*Peer).BlobNetStats()
		byRef += st.ByRefSent
		bytes += st.ByRefBytes
	}
	if byRef == 0 || bytes == 0 {
		t.Fatal("no payload went by reference on the repeated query")
	}
	// …and the client resolved references out of its own store.
	if client.BlobNetStats().RefsResolved <= refsBefore {
		t.Fatal("client resolved no references on the repeated query")
	}
	// No fetch-on-miss was needed in a fault-free world, and capability came
	// from the network, so no <blobfetch> crossed it at all.
	for addr := range stores {
		if st := net.Peer(addr).(*Peer).BlobNetStats(); st.Fetches != 0 || st.FetchFailures != 0 {
			t.Fatalf("%s: unexpected fetches in fault-free run: %+v", addr, st)
		}
	}
	if n := blobFetches(net); n != 0 {
		t.Fatalf("%d blobfetch requests in a fault-free run, want 0", n)
	}
	// Dedup at rest: teaching pins the same payload a collection already
	// holds, so somewhere in the world an intern was a hit, not a copy.
	var hits uint64
	for addr, s := range stores {
		st := s.Stats()
		hits += st.Hits
		if st.LogicalBytes < st.Bytes {
			t.Fatalf("%s: logical bytes below resident bytes: %+v", addr, st)
		}
	}
	if hits == 0 {
		t.Fatal("no store deduplicated anything across the two queries")
	}
}

// TestBlobMixedWorld: a store-less client among blob-enabled servers gets
// plain inline traffic and correct results — capability is per neighbor, as
// the network reports it, never assumed.
func TestBlobMixedWorld(t *testing.T) {
	net := simnet.New()
	ns := testNS()
	pdxCDs := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
	store := blobstore.New()

	client := mustPeer(t, Config{Addr: "client:9020", Net: net, NS: ns}) // no store
	mustPeer(t, Config{Addr: "M:9020", Net: net, NS: ns, PushSelect: true,
		Area: ns.MustParseArea("[USA, *]"), Authoritative: true, Blobs: store})
	s1 := mustPeer(t, Config{Addr: "s1:9020", Net: net, NS: ns, PushSelect: true,
		Area: pdxCDs, Blobs: blobstore.New()})
	s1.AddCollection(Collection{Name: "cds", PathExp: "/data[id=1]", Area: pdxCDs, Items: items(
		bigSale("Blue Train", 8),
	)})
	if err := s1.RegisterWith("M:9020", catalog.RoleBase); err != nil {
		t.Fatal(err)
	}
	meta := net.Peer("M:9020").(*Peer)
	meta.Catalog().AddAlias("urn:ForSale:Portland-CDs", namespace.EncodeURN(pdxCDs))
	if err := client.Catalog().Register(catalog.Registration{
		Addr: "M:9020", Role: catalog.RoleMetaIndex,
		Area: ns.MustParseArea("[USA, *]"), Authoritative: true,
	}); err != nil {
		t.Fatal(err)
	}

	for _, id := range []string{"m1", "m2"} {
		got := runBlobQuery(t, client, id)
		if len(got) != 1 || got[0].Value("cd") != "Blue Train" {
			t.Fatalf("query %s: results = %v", id, got)
		}
	}
	// Nothing was ever sent by reference to the store-less client.
	for _, addr := range []string{"M:9020", "s1:9020"} {
		if st := net.Peer(addr).(*Peer).BlobNetStats(); st.ByRefSent != 0 {
			t.Fatalf("%s substituted toward a store-less receiver: %+v", addr, st)
		}
	}
	if n := blobFetches(net); n != 0 {
		t.Fatalf("%d blobfetch requests in a fault-free run, want 0", n)
	}
}

// TestByRefAfterEarlyOutage: a receiver that was down the first time a
// sender had payloads for it gets references once it is back. Capability is
// asked of the network per frame, so an early failure is not remembered.
func TestByRefAfterEarlyOutage(t *testing.T) {
	net, client, _, _ := blobWorld(t)
	net.SetDown("client:9020", true)
	_ = client.Submit("M:9020", blobQuery("outage")) // the result cannot reach the client
	net.SetDown("client:9020", false)

	for _, id := range []string{"back1", "back2"} {
		if got := runBlobQuery(t, client, id); len(got) != 2 {
			t.Fatalf("query %s: %d results, want 2", id, len(got))
		}
	}
	if client.BlobNetStats().RefsResolved == 0 {
		t.Fatal("no reference reached the client after its outage")
	}
}

// TestBlobFetchOnMiss: a reference the receiver does not hold is repaired
// by a fetch back to the sender — the inline fallback. The taught set is
// seeded directly to simulate a teaching send the receiver lost.
func TestBlobFetchOnMiss(t *testing.T) {
	net, client, stores, _ := blobWorld(t)

	// s2 finishes the plan and ships the result home; convince it the
	// client already holds "Giant Steps" without the client ever seeing it.
	s2 := net.Peer("s2:9020").(*Peer)
	payload := xmltree.MustParse(bigSale("Giant Steps", 9))
	fp, _ := blobstore.Fingerprint(payload)
	if s2.blobs.teach("client:9020", fp, payload) {
		t.Fatal("first teach claimed the client already held the payload")
	}
	if !resident(stores["s2:9020"], fp) {
		t.Fatal("teaching did not pin the payload at the sender")
	}

	got := runBlobQuery(t, client, "miss")
	if len(got) != 2 {
		t.Fatalf("results = %d, want 2", len(got))
	}
	cst := client.BlobNetStats()
	if cst.Fetches != 1 || cst.FetchFailures != 0 {
		t.Fatalf("client fetch counters: %+v", cst)
	}
	if st := s2.BlobNetStats(); st.FetchServed != 1 || st.ByRefSent == 0 {
		t.Fatalf("s2 counters: %+v", st)
	}
	if !resident(stores["client:9020"], fp) {
		t.Fatal("fetched payload not interned at the receiver")
	}
	if len(client.StuckErrors()) != 0 {
		t.Fatalf("stuck: %v", client.StuckErrors())
	}
}

// TestBlobFetchFailureIsStuckNotWrong: a reference nobody can serve ends
// the plan as an attributable stuck record — never a silently wrong or
// payload-dropping result.
func TestBlobFetchFailureIsStuckNotWrong(t *testing.T) {
	_, client, stores, _ := blobWorld(t)

	orphan := xmltree.MustParse(bigSale("Nowhere Man", 4)).Freeze()
	fp, _ := blobstore.Fingerprint(orphan)
	body := xmltree.MustParse(fmt.Sprintf(
		`<mqp id="orphan" target="client:9020" blobs="1"><plan><display><data><blob fp="%s"/></data></display></plan></mqp>`,
		fp))
	if err := client.Deliver(nil, &simnet.Message{
		From: "s2:9020", To: "client:9020", Kind: KindMQP,
		Body: body.Freeze(), At: time.Second,
	}); err == nil {
		t.Fatal("unresolvable result delivered without error")
	}
	if _, ok := client.TakeResult(); ok {
		t.Fatal("a result was recorded despite the missing payload")
	}
	stuck := client.StuckErrors()
	if len(stuck) != 1 || !strings.Contains(stuck[0].Error(), `"orphan"`) {
		t.Fatalf("stuck = %v", stuck)
	}
	// The retry ran before giving up.
	if st := client.BlobNetStats(); st.Fetches != 1 || st.FetchRetries != 1 || st.FetchFailures != 1 {
		t.Fatalf("fetch counters: %+v", st)
	}
	if resident(stores["client:9020"], fp) {
		t.Fatal("failed fetch interned something")
	}
}

// forger answers every fetch-on-miss with a payload of its own choosing.
type forger struct{ payload *xmltree.Node }

func (forger) Addr() string                                   { return "forger:9020" }
func (forger) Deliver(*simnet.Network, *simnet.Message) error { return nil }
func (f forger) Serve(*simnet.Network, *simnet.Message) (*xmltree.Node, error) {
	return xmltree.Elem("blobdata", f.payload.Share()), nil
}

// TestBlobFetchRejectsForgedPayload: a fetch reply whose payload does not
// hash to the fingerprint asked for is a failed attempt. It is retried, never
// interned, and never resolves the reference, so the plan ends stuck as for
// an unreachable sender.
func TestBlobFetchRejectsForgedPayload(t *testing.T) {
	net, client, stores, _ := blobWorld(t)
	forged := xmltree.MustParse(bigSale("Forged Album", 1)).Freeze()
	net.Add(forger{payload: forged})

	wanted := xmltree.MustParse(bigSale("Nowhere Man", 4)).Freeze()
	fp, _ := blobstore.Fingerprint(wanted)
	body := xmltree.MustParse(fmt.Sprintf(
		`<mqp id="forged" target="client:9020" blobs="1"><plan><display><data><blob fp="%s"/></data></display></plan></mqp>`,
		fp))
	if err := client.Deliver(nil, &simnet.Message{
		From: "forger:9020", To: "client:9020", Kind: KindMQP,
		Body: body.Freeze(), At: time.Second,
	}); err == nil {
		t.Fatal("result with a forged payload delivered without error")
	}
	if res, ok := client.TakeResult(); ok {
		t.Fatalf("a result was recorded from a forged payload: %s", algebra.EncodeString(res.Plan))
	}
	stuck := client.StuckErrors()
	if len(stuck) != 1 || !strings.Contains(stuck[0].Error(), `"forged"`) {
		t.Fatalf("stuck = %v", stuck)
	}
	if st := client.BlobNetStats(); st.Fetches != 1 || st.FetchRetries != 1 || st.FetchFailures != 1 {
		t.Fatalf("fetch counters: %+v", st)
	}
	forgedFP, _ := blobstore.Fingerprint(forged)
	if resident(stores["client:9020"], forgedFP) || resident(stores["client:9020"], fp) {
		t.Fatal("a forged fetch reply was interned")
	}
}

// TestBlobCollectionsDedupAtRest: two peers' snapshots and a replica of the
// same content are one resident copy per store, and replacing a snapshot
// releases its pins.
func TestBlobCollectionsDedupAtRest(t *testing.T) {
	net := simnet.New()
	ns := testNS()
	area := ns.MustParseArea("[USA/OR/Portland, *]")
	store := blobstore.New()
	a := mustPeer(t, Config{Addr: "a:1", Net: net, NS: ns, Area: area, Blobs: store})

	shared := []string{bigSale("Blue Train", 8), bigSale("Giant Steps", 9)}
	a.AddCollection(Collection{Name: "x", PathExp: "/data[id=1]", Area: area, Items: items(shared...)})
	a.AddCollection(Collection{Name: "y", PathExp: "/data[id=2]", Area: area, Items: items(shared...)})
	st := store.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (two distinct payloads across two collections)", st.Entries)
	}
	if st.DedupRatio() != 2 {
		t.Fatalf("dedup ratio = %v, want 2", st.DedupRatio())
	}
	cx, _ := a.Collection("/data[id=1]")
	cy, _ := a.Collection("/data[id=2]")
	for i := range cx.Items {
		if cx.Items[i] != cy.Items[i] {
			t.Fatal("identical snapshots are not aliases")
		}
	}

	// Replacing one snapshot keeps the other's pins alive…
	if err := a.SetItems("/data[id=1]", items(bigSale("Kind of Blue", 15))); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Entries != 3 {
		t.Fatalf("entries after replace = %d, want 3", st.Entries)
	}
	// …and replacing the second releases the shared content for good.
	if err := a.SetItems("/data[id=2]", items(bigSale("Kind of Blue", 15))); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Entries != 1 {
		t.Fatalf("entries after both replaced = %d, want 1", st.Entries)
	}
}

// TestBlobReplicationInterns: ReplicateFrom installs canonical aliases, so
// a replica of data the peer already holds costs no extra residency.
func TestBlobReplicationInterns(t *testing.T) {
	net := simnet.New()
	ns := testNS()
	area := ns.MustParseArea("[USA/OR/Portland, *]")
	srcStore, dstStore := blobstore.New(), blobstore.New()
	src := mustPeer(t, Config{Addr: "src:1", Net: net, NS: ns, Area: area, Blobs: srcStore})
	dst := mustPeer(t, Config{Addr: "dst:1", Net: net, NS: ns, Area: area, Blobs: dstStore})
	_ = src
	items := items(bigSale("Blue Train", 8), bigSale("Giant Steps", 9))
	net.Peer("src:1").(*Peer).AddCollection(Collection{Name: "x", PathExp: "/data[id=1]", Area: area, Items: items})

	if err := dst.ReplicateFrom("src:1", "/data[id=1]", Collection{
		Name: "x", PathExp: "/data[id=1]", Area: area,
	}, 30); err != nil {
		t.Fatal(err)
	}
	if st := dstStore.Stats(); st.Entries != 2 {
		t.Fatalf("replica store entries = %d, want 2", st.Entries)
	}
	// A second refresh dedups against the first snapshot.
	if err := dst.ReplicateFrom("src:1", "/data[id=1]", Collection{
		Name: "x", PathExp: "/data[id=1]", Area: area,
	}, 30); err != nil {
		t.Fatal(err)
	}
	if st := dstStore.Stats(); st.Entries != 2 || st.DedupRatio() <= 1 {
		t.Fatalf("refresh did not dedup: %+v", st)
	}
}

// TestBlobFetchRetryUnderDrops: scheduled-mode request drops hit the
// fetch-on-miss path; the retry (or the terminal stuck record) keeps every
// plan accounted for. The seed is scanned for a run where a fetch was
// dropped and retried successfully — degrading to inline, not to loss.
func TestBlobFetchRetryUnderDrops(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		net := simnet.New()
		net.UseScheduler(seed)
		net.SetLinkFaults("s2:9020", "client:9020", simnet.Faults{Drop: 0.45})
		ns := testNS()
		pdxCDs := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
		client := mustPeer(t, Config{Addr: "client:9020", Net: net, NS: ns, Blobs: blobstore.New()})
		s2 := mustPeer(t, Config{Addr: "s2:9020", Net: net, NS: ns, PushSelect: true,
			Area: pdxCDs, Blobs: blobstore.New()})
		s2.AddCollection(Collection{Name: "cds", PathExp: "/data[id=2]", Area: pdxCDs,
			Items: items(bigSale("Giant Steps", 9))})

		// Seed a taught fingerprint the client never saw, so the result
		// arrives by reference and must fetch.
		payload := xmltree.MustParse(bigSale("Giant Steps", 9))
		fp, _ := blobstore.Fingerprint(payload)
		s2.blobs.teach("client:9020", fp, payload)

		plan := algebra.NewPlan("drop-q", "client:9020",
			algebra.Display(algebra.Select(algebra.MustParsePredicate("price < 10"),
				algebra.URL("s2:9020", "/data[id=2]"))))
		if err := client.Submit("s2:9020", plan); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}

		st := client.BlobNetStats()
		_, delivered := client.TakeResult()
		stuck := len(client.StuckErrors())
		// Accounting invariant under every seed: the plan ended exactly one
		// way (the MQP itself may also be dropped in transit — then neither).
		if delivered && stuck > 0 {
			t.Fatalf("seed %d: both a result and a stuck record", seed)
		}
		if st.Fetches > 0 && !delivered && stuck == 0 {
			t.Fatalf("seed %d: fetch ran but plan vanished", seed)
		}
		if delivered && st.FetchRetries > 0 && st.FetchFailures == 0 {
			// Found the target interleaving: first fetch dropped, retry
			// succeeded, result delivered.
			return
		}
	}
	t.Fatal("no seed in 1..64 produced a dropped-then-retried fetch; widen the scan")
}

// TestBlobStoredDocBuiltOnce: payloads arrive sealed and are stored so; the
// repeat query's results are the stored documents, resolved by reference.
// Reading inside one builds it, once: a second read of the stored document
// returns the same children and allocates nothing.
func TestBlobStoredDocBuiltOnce(t *testing.T) {
	_, client, stores, _ := blobWorld(t)
	runBlobQuery(t, client, "q1")
	second := runBlobQuery(t, client, "q2")
	if len(second) != 2 {
		t.Fatalf("second query: %d results, want 2", len(second))
	}
	pricePath := xmltree.ParsePath("price")
	for _, doc := range second {
		fp, _ := blobstore.Fingerprint(doc)
		if stored, ok := stores["client:9020"].Get(fp); !ok || stored != doc {
			t.Fatalf("result %s is not the client's stored document", doc)
		}
		if doc.Children != nil {
			t.Fatalf("stored document arrived built: %s", doc)
		}
		price := pricePath.First(doc)
		if price == nil {
			t.Fatalf("no price in %s", doc)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if pricePath.First(doc) != price {
				t.Fatal("second read built the stored document again")
			}
		}); allocs != 0 {
			t.Fatalf("reading a built stored document allocates %.0f/op", allocs)
		}
	}
}
