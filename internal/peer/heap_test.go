package peer

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"repro/internal/algebra"
	"repro/internal/blobstore"
	"repro/internal/simnet"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// liveHeap is the heap in use after a collection, with the identical-frame
// cache emptied (and left on): what the peers themselves hold.
func liveHeap() uint64 {
	xmltree.SetFrameCacheLimit(xmltree.SetFrameCacheLimit(0))
	goruntime.GC()
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.HeapAlloc
}

// A peer that keeps decoding frames must hold what it keeps (collections,
// catalog, plan cache, payload store), not what it has seen: the Fig. 3
// CD x track-listing join through an alias server and two base servers, all
// with payload stores, under ever-new plan ids. Documents the stores and
// caches cut out of early frames used to pin every frame decoded since.
func TestSteadyJoinLoadHeapIsFlat(t *testing.T) {
	// One processor, so that every decode draws the same pooled decoder: a
	// goroutine that changes processors leaves its sync.Pool slot behind and
	// would cut the chain of pinned frames this test is there to catch.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	net := simnet.New()
	ns := workload.GarageSaleNamespace()
	mk := func(addr string) *Peer {
		return mustPeer(t, Config{Addr: addr, Net: net, NS: ns, PushSelect: true, Key: []byte("k" + addr),
			PlanCacheSize: 128, Blobs: blobstore.New()})
	}
	alias, cds, tracks, client := mk("alias:9020"), mk("cds:9020"), mk("tracks:9020"), mk("client:9020")
	sales, listings := workload.CDCatalog(1, 200)
	cds.AddCollection(Collection{Name: "items", PathExp: "/data", Items: sales})
	tracks.AddCollection(Collection{Name: "items", PathExp: "/data", Items: listings})
	alias.Catalog().AddAlias("urn:Demo:CDs", "http://cds:9020/data")
	alias.Catalog().AddAlias("urn:Demo:Tracks", "http://tracks:9020/data")

	query := func(i int) {
		pred := algebra.MustParsePredicate(fmt.Sprintf("price < %d", 8+2*(i%8)))
		p := algebra.NewPlan(fmt.Sprintf("join-%d", i), client.Addr(), algebra.Display(
			algebra.JoinNamed("cd", "cd", "sale", "listing",
				algebra.Select(pred, algebra.URN("urn:Demo:CDs")), algebra.URN("urn:Demo:Tracks"))))
		p.RetainOriginal()
		if err := client.Submit(alias.Addr(), p); err != nil {
			t.Fatal(err)
		}
		res, ok := client.TakeResult()
		if !ok {
			t.Fatalf("query %d: no result", i)
		}
		if got, err := res.Plan.Results(); err != nil || len(got) == 0 || len(got)%3 != 0 {
			t.Fatalf("query %d: %d tuples, %v", i, len(got), err)
		}
	}
	for i := 0; i < 100; i++ {
		query(i)
	}
	before := liveHeap()
	for i := 100; i < 300; i++ {
		query(i)
	}
	after := liveHeap()
	t.Logf("live heap: %d KB after 100 joins, %d KB after 300", before>>10, after>>10)
	if after > before+1<<20 {
		t.Fatalf("live heap grew %d KB over 200 joins (%d KB to %d KB): decoded frames are being pinned",
			(after-before)>>10, before>>10, after>>10)
	}
	goruntime.KeepAlive([]*Peer{alias, cds, tracks, client})
}
