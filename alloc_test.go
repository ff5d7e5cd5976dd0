package repro_test

import (
	"fmt"
	"io"
	"log"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/algebra"
	"repro/internal/blobstore"
	"repro/internal/engine"
	"repro/internal/peer"
	"repro/internal/provenance"
	"repro/internal/simnet"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// Allocation budgets for the hot paths of a hop. These are regression
// gates, not aspirations: each bound sits ~25% above the measured value (the
// plan-hop, select-hop and SendFrame budgets, which repeat exactly, two
// allocations above; the join budget about two per tuple above; the
// large-frame budget, where any chunk is a regression, at its measurement)
// so real regressions fail while noise does not. Run via plain `go test`
// (and therefore `make ci`).
const (
	// warmDecodeAllocBudget bounds one zero-copy decode of the
	// representative in-flight plan (~21 KB, two 40-item payloads, retained
	// original, provenance trail). Measured: 3 allocs — the node, child and
	// attribute slabs, each sized from the frame and owned by its tree; no
	// per-node allocation, and this plan escapes nothing.
	warmDecodeAllocBudget = 4
	// decodedTreeByteBudget bounds what those slabs weigh: the bytes one
	// cold decode of the same plan allocates. Measured: 124.0 KB — one node
	// per element, a field's text held in the element (238.6 KB while every
	// <name>text</name> cost a second node and a child slot). Its payloads
	// are a join's inputs, so they decode eagerly: the join reads them all
	// (TestDecodedBytesPerFreightItem bounds sealed freight).
	decodedTreeByteBudget = 130_000
	// planHopAllocBudget bounds the document-level hop: Marshal (the
	// streamed frame, decoded — an identical-frame cache hit, as a
	// repeated frame is), size, arena-backed unmarshal, provenance stamp,
	// and Marshal of the stamped plan. Measured: 54 allocs (112 while
	// Marshal built a staging tree; 224 before the zero-copy receive path;
	// 7937 before PR 2). The fixture carries no select, so predicates are
	// budgeted separately below.
	planHopAllocBudget = 56
	// selectHopAllocBudget bounds what a server does to a plan whose nine
	// union branches carry the same pushed-down select (area_fanout's
	// shape): frame-cache-hit decode, unmarshal, the plan fingerprint,
	// streamed re-encode. Measured: 26 allocs
	// (197 while every branch re-parsed its predicate and every use
	// re-rendered it).
	selectHopAllocBudget = 28
	// frameCacheHitAllocBudget bounds a warm decode of a frame already in
	// the identical-frame cache: hash, byte-compare, alias the frozen tree.
	// Measured: 0 allocs.
	frameCacheHitAllocBudget = 4
	// planHopWireAllocBudget bounds the warm streamed codec hop a
	// forwarding peer pays per already-seen frame: cache-hit decode +
	// arena-backed unmarshal + provenance stamp + streaming re-encode
	// (no staging tree). Measured: 47 allocs (was ~164 on the staged
	// path before the frame cache and streaming encoder).
	planHopWireAllocBudget = 60
	// sendFrameAllocBudget bounds the door every plan a peer sends goes
	// through on simnet: SendFrame stages the fixture plan with EncodeFrame,
	// copies the frame into one string, decodes it on the receiver's side (an
	// identical-frame cache hit) and hands the message to a peer that
	// discards it. Measured: 8 allocs.
	sendFrameAllocBudget = 10
	// freezeAllocBudget bounds freezing serializeDoc's mutable 40-item
	// payload: one size-and-mark walk, then the serialization memo built in
	// a buffer of exactly that size. Measured: 1 alloc, the memo string.
	freezeAllocBudget = 2
	// joinReduceAllocBudget bounds engine.Reduce of the decoded Fig. 3 join
	// (100 CDs, 300 listings, 300 tuples), per tuple: the tuple's one node,
	// its serialization, and shares of the hash table and the output slice.
	// Measured: 2.4 (also 2.4 while a tuple was one block holding the tuple,
	// its two components and its child array, plus Freeze's memo; 7.4 while
	// it was an Elem of two component wrappers, each with its own child
	// list).
	joinReduceAllocBudget = 4.5
	// joinReduceByteBudget bounds the bytes the same Reduce allocates per
	// tuple. Measured: 310 B, a sealed tuple written straight into its
	// serialization (550 B while every tuple was built as a tree of three
	// nodes and then frozen into its memo).
	joinReduceByteBudget = 400
	// largeFrameAllocBudget bounds staging that join's result frame (39 KB,
	// the size of the track server's reply in tcp_chain) a second time on
	// one encoder: Reset keeps the buffer and the frame reuses it.
	// Measured: 1 alloc, the sorted annotation keys of the <data>, and no
	// buffer growth.
	largeFrameAllocBudget = 1
	// shippedJoinByteBudget bounds the heap bytes one Fig. 3 join query
	// allocates in all its peers on the shipped path (TestShippedJoinBytes):
	// peer.TCP over loopback links, every frame staged, written, read and
	// decoded. Measured: 322 KB (319–326 over six runs; 324 while the frame
	// encoder staged segment lists), and 375 KB with one extra copy of each
	// frame on the send path, which this budget must catch.
	shippedJoinByteBudget = 345 << 10
)

// A run of payload references costs no allocation per reference: staging a
// <data> whose payloads all go by reference and resolving the frame on the
// receiver's side allocate as much at refRunWide references as at
// refRunNarrow. The sender appends each fingerprint's wire form into the
// frame (blobstore.FP.Append) and the receiver decodes each one from the
// attribute in place (blobstore.ParseFP); the rebuilt child list is one
// allocation however long the run.
const (
	refRunNarrow = 8
	refRunWide   = 64
)

func planFixtureForAllocs(t *testing.T) (*algebra.Plan, []byte, string) {
	t.Helper()
	plan, key := planHopFixture(t)
	return plan, key, algebra.EncodeString(plan)
}

func TestWarmDecodeAllocBudget(t *testing.T) {
	_, _, wire := planFixtureForAllocs(t)
	// Disable the identical-frame cache: this budget gates the cold
	// materializing decode path, not the cache hit (which
	// TestFrameCacheHitAllocBudget bounds separately).
	defer xmltree.SetFrameCacheLimit(xmltree.SetFrameCacheLimit(0))
	// Prime the decoder pool and intern table so the measurement is the
	// steady state a forwarding peer lives in.
	if _, err := xmltree.DecodeString(wire); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		doc, err := xmltree.DecodeString(wire)
		if err != nil {
			t.Fatal(err)
		}
		if doc.Name != "mqp" {
			t.Fatal("bad decode")
		}
	})
	if allocs > warmDecodeAllocBudget {
		t.Fatalf("warm decode allocates %.0f/op; budget is %d — a decode-side regression", allocs, warmDecodeAllocBudget)
	}

	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := xmltree.DecodeString(wire); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > decodedTreeByteBudget {
		t.Fatalf("decoded tree weighs %d bytes; budget is %d — text nodes or payload fields are being built again", perOp, decodedTreeByteBudget)
	}
}

// freightWire is an area_fanout-shaped frame: a union of the <data> leaves of
// sellers sellers, items six-field sale items each, beside the selections of
// the sellers still to visit, with the retained original, a visited section
// and a provenance trail of two visits a seller.
func freightWire(sellers, items int) string {
	var b strings.Builder
	b.WriteString(`<mqp id="area_fanout-1-2" target="buyer:9020"><plan><display><union>`)
	for s := 0; s < sellers; s++ {
		fmt.Fprintf(&b, `<data><annotations><annot k="card" v="%d"/></annotations>`, items)
		for i := 0; i < items; i++ {
			fmt.Fprintf(&b, `<item id="s%d-i%d"><name>Tables #%d</name><category>Furniture/Tables</category>`+
				`<city>USA/OR/Eugene</city><price>%d</price><condition>good</condition><qty>2</qty></item>`, s, i, i, 1+i%200)
		}
		b.WriteString(`</data>`)
	}
	for s := sellers; s < sellers+4; s++ {
		fmt.Fprintf(&b, `<select pred="price &lt; 21"><url href="seller%03d:9020" path="/data[id=%d]">`+
			`<annotations><annot k="source" v="seller%03d:9020"/></annotations></url></select>`, s, s, s)
	}
	b.WriteString(`</union></display></plan><original><display><select pred="price &lt; 21">` +
		`<urn name="urn:InterestArea:(USA.OR,Furniture.Tables)"/></select></display></original>` +
		`<visited>idx-USA-OR:9020 GWB3pzcqIDU;meta:9020 673XUOYSJCc</visited><provenance>`)
	for s := 0; s < sellers; s++ {
		for _, action := range []string{"data", "reduce"} {
			fmt.Fprintf(&b, `<visit action="%s" at="%d" server="seller%03d:9020" sig="%064x"/>`, action, 1000*s, s, s)
		}
	}
	b.WriteString(`</provenance></mqp>`)
	return b.String()
}

// decodedBytes is what one cold decode of frame allocates, averaged.
func decodedBytes(t *testing.T, frame string) uint64 {
	t.Helper()
	const runs = 20
	if _, err := xmltree.DecodeString(frame); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := xmltree.DecodeString(frame); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// A payload item costs the decoder one node, not one per element: between
// frames of k and 2k six-field items, the decoded bytes grow by less than two
// nodes per extra item (one node, its child slot and its id attribute, where
// building the fields took seven nodes and as many slots).
func TestDecodedBytesPerFreightItem(t *testing.T) {
	defer xmltree.SetFrameCacheLimit(xmltree.SetFrameCacheLimit(0))
	const k = 64
	grow := decodedBytes(t, freightWire(1, 2*k)) - decodedBytes(t, freightWire(1, k))
	perItem := float64(grow) / k
	if node := float64(unsafe.Sizeof(xmltree.Node{})); perItem > 2*node {
		t.Fatalf("decoded bytes grow by %.0f per item; budget is two nodes (%.0f)", perItem, 2*node)
	}
}

func TestPlanHopAllocBudget(t *testing.T) {
	plan, key, _ := planFixtureForAllocs(t)
	hop := func() {
		doc := algebra.Marshal(plan)
		if doc.ByteSize() == 0 {
			t.Fatal("empty wire doc")
		}
		p2, err := algebra.Unmarshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := provenance.FromPlan(p2)
		if err != nil {
			t.Fatal(err)
		}
		tr.Append(provenance.Visit{
			Server: "hop:1", Action: provenance.ActionForward, At: time.Millisecond,
		}, key)
		provenance.ToPlan(p2, tr)
		if algebra.Marshal(p2).ByteSize() == 0 {
			t.Fatal("empty forwarded doc")
		}
	}
	hop()
	if allocs := testing.AllocsPerRun(20, hop); allocs > planHopAllocBudget {
		t.Fatalf("plan hop allocates %.0f/op; budget is %d", allocs, planHopAllocBudget)
	}
}

func TestFrameCacheHitAllocBudget(t *testing.T) {
	_, _, wire := planFixtureForAllocs(t)
	if _, err := xmltree.DecodeString(wire); err != nil { // prime the cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		doc, err := xmltree.DecodeString(wire)
		if err != nil {
			t.Fatal(err)
		}
		if doc.Name != "mqp" {
			t.Fatal("bad decode")
		}
	})
	if allocs > frameCacheHitAllocBudget {
		t.Fatalf("frame-cache hit allocates %.0f/op; budget is %d — the cache stopped aliasing", allocs, frameCacheHitAllocBudget)
	}
}

func TestSelectHopAllocBudget(t *testing.T) {
	var branches []*algebra.Node
	for i := 0; i < 9; i++ {
		branches = append(branches, algebra.Select(algebra.MustParsePredicate("price < 20"),
			algebra.URL(fmt.Sprintf("s%d:9020", i), "/data[id=1]")))
	}
	wire := algebra.EncodeString(algebra.NewPlan("fan", "client:1", algebra.Display(algebra.Union(branches...))))
	cached, err := algebra.DecodeString(wire) // primes the frame cache too
	if err != nil {
		t.Fatal(err)
	}
	hop := func() {
		p, err := algebra.DecodeString(wire)
		if err != nil {
			t.Fatal(err)
		}
		if algebra.Fingerprint(p.Root) != algebra.Fingerprint(cached.Root) {
			t.Fatal("decoded plan differs from its twin")
		}
		if n, err := streamed(p); err != nil || n != len(wire) {
			t.Fatalf("streamed %d bytes: %v", n, err)
		}
	}
	hop()
	if p, err := algebra.DecodeString(wire); err != nil || algebra.EncodeString(p) != algebra.EncodeString(cached) {
		t.Fatalf("decoded plan differs from its twin (%v)", err)
	}
	if allocs := testing.AllocsPerRun(20, hop); allocs > selectHopAllocBudget {
		t.Fatalf("select hop allocates %.0f/op; budget is %d — predicates are being parsed or rendered per use", allocs, selectHopAllocBudget)
	}
}

func TestPlanHopWireAllocBudget(t *testing.T) {
	_, key, wire := planFixtureForAllocs(t)
	if _, err := xmltree.DecodeString(wire); err != nil { // prime the frame cache
		t.Fatal(err)
	}
	hop := func() {
		doc, err := xmltree.DecodeString(wire)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := algebra.Unmarshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := provenance.FromPlan(p2)
		if err != nil {
			t.Fatal(err)
		}
		tr.Append(provenance.Visit{
			Server: "hop:1", Action: provenance.ActionForward, At: time.Millisecond,
		}, key)
		provenance.ToPlan(p2, tr)
		if n, err := streamed(p2); err != nil || n == 0 {
			t.Fatalf("streamed %d bytes: %v", n, err)
		}
	}
	hop()
	if allocs := testing.AllocsPerRun(20, hop); allocs > planHopWireAllocBudget {
		t.Fatalf("wire hop allocates %.0f/op; budget is %d", allocs, planHopWireAllocBudget)
	}
}

// sinkPeer takes every message and keeps nothing.
type sinkPeer struct{}

func (sinkPeer) Addr() string                                   { return "sink:1" }
func (sinkPeer) Deliver(*simnet.Network, *simnet.Message) error { return nil }
func (sinkPeer) Serve(*simnet.Network, *simnet.Message) (*xmltree.Node, error) {
	return nil, nil
}

func TestSendFrameAllocBudget(t *testing.T) {
	plan, _, _ := planFixtureForAllocs(t)
	net := simnet.New()
	net.Add(sinkPeer{})
	msg := &simnet.Message{From: "src:1", To: "sink:1", Kind: "mqp"}
	stage := func(e *xmltree.FrameEncoder) { algebra.EncodeFrame(plan, e) }
	send := func() {
		if err := net.SendFrame(msg, stage); err != nil {
			t.Fatal(err)
		}
	}
	send() // open the link, prime the frame cache
	if allocs := testing.AllocsPerRun(20, send); allocs > sendFrameAllocBudget {
		t.Fatalf("simnet.SendFrame allocates %.0f/op; budget is %d", allocs, sendFrameAllocBudget)
	}
}

// TestShippedJoinBytes runs bulk_join's query, the Fig. 3 CD x
// track-listing join over two alias URNs, through peer.TCP on loopback: a
// client, an alias server and the two base servers, as cmd/mqpd's doc
// comment wires them. It reads the process's heap allocation around a warm
// batch and holds bytes per query to shippedJoinByteBudget.
func TestShippedJoinBytes(t *testing.T) {
	logs := log.Writer()
	log.SetOutput(io.Discard) // peer.TCP logs one line per plan
	t.Cleanup(func() { log.SetOutput(logs) })
	ns := workload.GarageSaleNamespace()
	join := func(name string, cfg peer.Config) *peer.Peer {
		tcp := peer.NewTCP()
		if err := tcp.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tcp.Close() })
		cfg.Net, cfg.Addr, cfg.NS, cfg.Key = tcp, tcp.Addr(), ns, []byte("k-"+name)
		cfg.PlanCacheSize, cfg.Blobs = 128, blobstore.New()
		p, err := peer.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	alias := join("alias", peer.Config{PushSelect: true})
	sales, listings := workload.CDCatalog(1, 200)
	for _, b := range []struct {
		name, urn string
		items     []*xmltree.Node
	}{{"cds", "urn:Demo:CDs", sales}, {"tracks", "urn:Demo:Tracks", listings}} {
		for _, it := range b.items {
			it.Freeze()
		}
		bp := join(b.name, peer.Config{PushSelect: true})
		bp.AddCollection(peer.Collection{Name: b.name, PathExp: "/data", Items: b.items})
		alias.Catalog().AddAlias(b.urn, "http://"+bp.Addr()+"/data")
	}
	client := join("client", peer.Config{})

	seq := 0
	query := func() {
		seq++
		plan := algebra.NewPlan(fmt.Sprintf("join-%d", seq), client.Addr(), algebra.Display(
			algebra.JoinNamed("cd", "cd", "sale", "listing",
				algebra.Select(algebra.MustParsePredicate(fmt.Sprintf("price < %d", 8+2*(seq%8))), algebra.URN("urn:Demo:CDs")),
				algebra.URN("urn:Demo:Tracks"))))
		plan.RetainOriginal()
		if err := client.Submit(alias.Addr(), plan); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			if res, ok := client.TakeResult(); ok {
				if items, err := res.Plan.Results(); err != nil || res.Partial || len(items) == 0 {
					t.Fatalf("query %d: %d items, partial %v, %v", seq, len(items), res.Partial, err)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("query %d: no result; stuck %v", seq, client.StuckErrors())
			}
		}
	}
	allocated := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	const warm, batch = 16, 64
	for i := 0; i < warm; i++ {
		query()
	}
	// No collection during the batch: one would empty the pools the warm
	// queries filled, and what refills them would count as noise.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := allocated()
	for i := 0; i < batch; i++ {
		query()
	}
	perQuery := (allocated() - before) / batch
	if perQuery > shippedJoinByteBudget {
		t.Fatalf("a join query allocates %d KB on the shipped path; budget is %d KB", perQuery>>10, shippedJoinByteBudget>>10)
	}
	t.Logf("%d KB per query", perQuery>>10)
}

// fig3JoinFixture is the Fig. 3 join over n CDs and their 3n listings the way
// a hop holds it: decoded from a plan frame, its items frozen and carved from
// the decoder's slabs.
func fig3JoinFixture(t *testing.T, n int) *algebra.Node {
	t.Helper()
	sales, listings := workload.CDCatalog(1, n)
	p, err := algebra.DecodeString(algebra.EncodeString(algebra.NewPlan("join", "client:1", algebra.Display(
		algebra.JoinNamed("cd", "cd", "sale", "listing", algebra.Data(sales...), algebra.Data(listings...))))))
	if err != nil {
		t.Fatal(err)
	}
	return p.Root.Children[0]
}

func TestJoinReduceAllocBudget(t *testing.T) {
	join := fig3JoinFixture(t, 100)
	tuples := 0
	allocs := testing.AllocsPerRun(20, func() {
		out, err := engine.Reduce(join)
		if err != nil {
			t.Fatal(err)
		}
		tuples = len(out.Docs)
	})
	if tuples != 300 {
		t.Fatalf("join produced %d tuples, want 300", tuples)
	}
	if perTuple := allocs / float64(tuples); perTuple > joinReduceAllocBudget {
		t.Fatalf("join Reduce allocates %.2f per tuple; budget is %.1f", perTuple, joinReduceAllocBudget)
	}
}

func TestJoinReduceBytesPerTuple(t *testing.T) {
	join := fig3JoinFixture(t, 100)
	const runs = 20
	tuples := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		out, err := engine.Reduce(join)
		if err != nil {
			t.Fatal(err)
		}
		tuples = len(out.Docs)
	}
	runtime.ReadMemStats(&after)
	if tuples != 300 {
		t.Fatalf("join produced %d tuples, want 300", tuples)
	}
	if perTuple := (after.TotalAlloc - before.TotalAlloc) / runs / uint64(tuples); perTuple > joinReduceByteBudget {
		t.Fatalf("join Reduce allocates %d bytes per tuple; budget is %d", perTuple, joinReduceByteBudget)
	}
}

func TestLargeFrameAllocBudget(t *testing.T) {
	out, err := engine.Reduce(fig3JoinFixture(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	result := algebra.NewPlan("join", "client:1", algebra.Display(out))
	enc := xmltree.NewFrameEncoder()
	algebra.EncodeFrame(result, enc)
	if enc.Len() < 16<<10 {
		t.Fatalf("result frame is %d bytes; the budget is for frames of 16 KB or more", enc.Len())
	}
	allocs := testing.AllocsPerRun(20, func() {
		enc.Reset()
		algebra.EncodeFrame(result, enc)
	})
	if allocs > largeFrameAllocBudget {
		t.Fatalf("staging a %d-byte frame again allocates %.0f/op; budget is %d", enc.Len(), allocs, largeFrameAllocBudget)
	}
}

func TestFreezeAllocBudget(t *testing.T) {
	const runs = 20
	docs := make([]*xmltree.Node, runs+1) // AllocsPerRun makes one warm-up call
	for i := range docs {
		docs[i] = serializeDoc()
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		docs[next].Freeze()
		next++
	})
	if allocs > freezeAllocBudget {
		t.Fatalf("freeze allocates %.0f/op; budget is %d", allocs, freezeAllocBudget)
	}
}

// refRunAllocs measures one staging and one resolution of a plan whose one
// <data> holds n payloads, all sent by reference.
func refRunAllocs(t *testing.T, n int) float64 {
	t.Helper()
	store := blobstore.New()
	fps := map[*xmltree.Node]blobstore.FP{}
	sales, _ := workload.CDCatalog(1, n)
	for _, d := range sales {
		_, fps[d] = store.Intern(d)
	}
	plan := algebra.NewPlan("refs", "client:1", algebra.Display(algebra.Data(sales...)))
	ref := func(d *xmltree.Node, dst []byte) ([]byte, bool) {
		fp, ok := fps[d]
		return fp.Append(dst), ok
	}
	resolve := func(s string) (*xmltree.Node, error) {
		fp, ok := blobstore.ParseFP(s)
		if !ok {
			return nil, fmt.Errorf("malformed fingerprint %q", s)
		}
		if doc, ok := store.Get(fp); ok {
			return doc, nil
		}
		return nil, fmt.Errorf("unknown fingerprint %s", s)
	}
	enc := xmltree.NewFrameEncoder()
	var frame []byte
	run := func() {
		enc.Reset()
		algebra.EncodeFrameRefs(plan, enc, ref)
		frame = enc.AppendString(frame[:0])
		body, err := xmltree.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		out, err := algebra.ResolveBlobs(body, resolve, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Children[0].Children[0].Children[0].Children) != n {
			t.Fatalf("resolved %s", out)
		}
	}
	run()
	if refs := strings.Count(string(frame), "<blob "); refs != 1 {
		t.Fatalf("%d payload references staged as %d <blob> elements, want one run", n, refs)
	}
	return testing.AllocsPerRun(20, run)
}

func TestRefRunAllocsPerReference(t *testing.T) {
	narrow, wide := refRunAllocs(t, refRunNarrow), refRunAllocs(t, refRunWide)
	if wide != narrow {
		t.Fatalf("a run of %d references allocates %.0f/op, of %d %.0f/op — something is allocated per reference",
			refRunWide, wide, refRunNarrow, narrow)
	}
}
