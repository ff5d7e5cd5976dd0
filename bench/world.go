package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/blobstore"
	"repro/internal/catalog"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/hierarchy"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// sizes scales a workload. The committed sizes are the ones every gated
// number is defined at; the toy sizes exist for the smoke test only.
type sizes struct {
	sellers, itemsPerSeller, areaQueries int
	cds                                  int
	loads                                map[string]load
	// tracePairs is the length of the traced run: that many untraced batches,
	// each followed by a traced one.
	tracePairs int
}

// load is how a workload is driven: how many passes over its query list
// warm a new world up, how many make one timed batch, and how many batches a
// world is measured for before its memory is read and it is torn down.
type load struct{ warmPasses, passes, batches int }

// The committed loads make a batch last a few tenths of a second on the
// 2-vCPU box (8 to 400 queries a pass, see README) and a world live four of
// them. point_hot's world builds in a third of a millisecond; its warm-up is
// long enough that set-up time is not a measurement of timer noise.
var fullSizes = sizes{
	sellers: 120, itemsPerSeller: 24, areaQueries: 400, cds: 200,
	loads: map[string]load{
		"point_hot":   {warmPasses: 256, passes: 4096, batches: 4},
		"area_fanout": {warmPasses: 2, passes: 2, batches: 4},
		"bulk_join":   {warmPasses: 2, passes: 32, batches: 4},
		"tcp_chain":   {warmPasses: 2, passes: 32, batches: 4},
		"churn_mixed": {warmPasses: 2, passes: 1, batches: 2},
	},
	tracePairs: 4,
}

var toySizes = sizes{
	sellers: 12, itemsPerSeller: 4, areaQueries: 24, cds: 12,
	loads: map[string]load{
		"point_hot":   {warmPasses: 2, passes: 4, batches: 2},
		"area_fanout": {warmPasses: 2, passes: 1, batches: 2},
		"bulk_join":   {warmPasses: 2, passes: 2, batches: 2},
		"tcp_chain":   {warmPasses: 2, passes: 2, batches: 2},
		"churn_mixed": {warmPasses: 2, passes: 1, batches: 2},
	},
	tracePairs: 2,
}

// Peer roles, the key of peer.hop_self_us.<role>.
const (
	roleClient = "client"
	roleMeta   = "meta"
	roleIndex  = "index"
	roleBase   = "base"
)

// query is one entry of a workload's query list.
type query struct {
	// plan is what the client submits. It is reused across passes: Submit
	// only marshals it.
	plan *algebra.Plan
	// body, when set, is a frozen prototype sent verbatim instead of plan
	// (the resubmitted-known-query path of point_hot).
	body *xmltree.Node
	// ref is the same question phrased for the central oracle: aliases
	// replaced by what they stand for.
	ref *algebra.Plan
	// pred is the query's selection predicate, for the engine stage replay.
	pred algebra.Predicate
	// want caches the oracle's answer while the world does not change.
	want map[string]int
}

// result is one answered query as the client saw it.
type result struct {
	plan *algebra.Plan
	hops int
	lat  time.Duration
}

// world is one built workload: a system under test, a client, a query list
// and the oracle that knows the right answers.
type world interface {
	queries() []query
	// do submits query qi and blocks until its result is back.
	do(qi int) (result, error)
	// expected is the oracle's answer to query qi in the world's current state.
	expected(qi int) (map[string]int, error)
	// wireBytes is the cumulative count of bytes put on links.
	wireBytes() int64
	// memMB is the memory the system under test holds once process-wide
	// caches are emptied and garbage collected. own is how much of this
	// process's heap is the benchmark's own sample buffers.
	memMB(own float64) (float64, error)
	// writeEvery > 0 asks the driver for one write per that many reads.
	writeEvery() int
	// write applies the next write of the cycle and returns the time spent
	// inside the system under test.
	write() (time.Duration, error)
	// trace makes the world record spans from now on; nil stops it.
	trace(tr *tracer)
	// counters snapshots the counts the program under test keeps, and
	// layerMetrics turns two snapshots n queries apart into layer metrics;
	// plain is the untraced batches among them.
	counters() counters
	layerMetrics(m metrics, before, after counters, n int, plain *phase)
	// replayStages feeds what tr captured through the layers' public
	// functions, timing each stage into st.
	replayStages(e *env, tr *tracer, st *stageStats, m metrics, seed int64) error
	close() error
}

// simWorld is a workload on the verified internal/peer runtime over inline
// simnet. Every peer runs with Workers: 0, so a whole plan chain executes on
// the caller's goroutine.
type simWorld struct {
	name   string
	net    *simnet.Network
	ns     *namespace.Namespace
	client *peer.Peer
	entry  string // where the client submits
	peers  map[string]*peer.Peer
	roles  map[string]string
	cfgs   map[string]peer.Config // as built, for the stage replay
	qs     []query
	seq    int
	// distinctIDs gives every submission its own plan id, so no two frames
	// of the run are byte-identical.
	distinctIDs bool
	tr          *tracer

	// colls is what the oracle is built over; oracle is nil for the join
	// worlds, whose reference plans carry their data inline.
	colls  []chaos.Collection
	oracle *chaos.Oracle

	churn *churnState
}

func (w *simWorld) queries() []query { return w.qs }
func (w *simWorld) wireBytes() int64 { return w.net.Metrics().Bytes }
func (w *simWorld) memMB(own float64) (float64, error) {
	return fresh() - own, nil
}
func (w *simWorld) close() error {
	for _, p := range w.peers {
		p.Close()
	}
	return nil
}

func (w *simWorld) add(role string, cfg peer.Config) (*peer.Peer, error) {
	cfg.Net, cfg.NS = w.net, w.ns
	p, err := peer.New(cfg)
	if err != nil {
		return nil, err
	}
	w.peers[cfg.Addr] = p
	w.roles[cfg.Addr] = role
	w.cfgs[cfg.Addr] = cfg
	if w.tr != nil {
		// A peer joining a traced world is traced too.
		w.net.Add(&proxyPeer{inner: p, role: role, tr: w.tr})
	}
	return p, nil
}

func (w *simWorld) do(qi int) (result, error) {
	q := &w.qs[qi]
	w.seq++
	var err error
	var root *span
	if w.tr != nil {
		root = w.tr.begin("query", w.client.Addr(), roleClient, "submit")
	}
	start := time.Now()
	if q.body != nil {
		err = w.net.Send(&simnet.Message{From: w.client.Addr(), To: w.entry, Kind: peer.KindMQP, Body: q.body})
	} else {
		if w.distinctIDs {
			q.plan.ID = fmt.Sprintf("%s-%d-%d", w.name, qi, w.seq)
		}
		err = w.client.Submit(w.entry, q.plan)
	}
	lat := time.Since(start)
	if root != nil {
		w.tr.end(root)
	}
	if err != nil {
		return result{lat: lat}, err
	}
	res, ok := w.client.TakeResult()
	if !ok {
		return result{lat: lat}, fmt.Errorf("%s: query %d: no result delivered", w.name, qi)
	}
	return result{plan: res.Plan, hops: res.Hops, lat: lat}, nil
}

func (w *simWorld) expected(qi int) (map[string]int, error) {
	q := &w.qs[qi]
	if q.want != nil {
		return q.want, nil
	}
	if w.oracle == nil {
		want, err := centralAnswer(q.ref)
		q.want = want
		return want, err
	}
	items, err := w.oracle.Evaluate(q.ref)
	if err != nil {
		return nil, err
	}
	want := chaos.Multiset(items)
	if w.churn == nil {
		q.want = want
	}
	return want, nil
}

// centralAnswer evaluates a reference plan that carries its data inline.
func centralAnswer(ref *algebra.Plan) (map[string]int, error) {
	// Evaluate freezes payloads in place; the reference plan is reused.
	items, err := engine.Evaluate(ref.Root.Clone())
	if err != nil {
		return nil, err
	}
	return chaos.Multiset(items), nil
}

func (w *simWorld) writeEvery() int {
	if w.churn == nil {
		return 0
	}
	return w.churn.every
}

// rebuildOracle follows a change of w.colls.
func (w *simWorld) rebuildOracle() (err error) {
	w.oracle, err = chaos.NewOracle(w.ns, w.colls)
	return err
}

func newSimWorld(name string, ns *namespace.Namespace) *simWorld {
	return &simWorld{name: name, net: simnet.New(), ns: ns,
		peers: map[string]*peer.Peer{}, roles: map[string]string{}, cfgs: map[string]peer.Config{}}
}

// --- point_hot ----------------------------------------------------------

const hotURN = "urn:ForSale:Portland-CDs"

// buildPointHot is the cmd/loadgen world made synchronous: one server that
// is its own authoritative index, 16 items, 8 selective price predicates
// over one alias URN, resubmitted as frozen prototype bodies into a warm
// prepared-plan cache. The seed permutes which album has which price and the
// order of the predicates.
func buildPointHot(seed int64, _ sizes) (*simWorld, error) { return buildPointHotWorkers(seed, 0) }

// buildPointHotWorkers builds point_hot with the server on a worker pool of
// the given size; only the ungated peer.pool_p50_us asks for one.
func buildPointHotWorkers(seed int64, workers int) (*simWorld, error) {
	rng := rand.New(rand.NewSource(seed))
	loc := hierarchy.New("Location")
	loc.MustAdd("USA/OR/Portland")
	merch := hierarchy.New("Merchandise")
	merch.MustAdd("Music/CDs")
	ns, err := namespace.New(loc, merch)
	if err != nil {
		return nil, err
	}
	area := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
	w := newSimWorld("point_hot", ns)
	w.entry = "server:9020"
	srv, err := w.add(roleIndex, peer.Config{Addr: w.entry, Area: area, Authoritative: true,
		PushSelect: true, PlanCacheSize: 256, Workers: workers})
	if err != nil {
		return nil, err
	}
	prices := rng.Perm(16)
	items := make([]*xmltree.Node, 16)
	for i := range items {
		items[i] = xmltree.MustParse(fmt.Sprintf(
			"<sale><cd>Album %02d</cd><price>%d</price></sale>", i, 3+2*prices[i]))
	}
	const pathExp = "/data[id=1]"
	srv.AddCollection(peer.Collection{Name: "cds", PathExp: pathExp, Area: area, Items: items})
	if err := srv.RegisterWith(w.entry, catalog.RoleBase); err != nil {
		return nil, err
	}
	srv.Catalog().AddAlias(hotURN, namespace.EncodeURN(area))
	if w.client, err = w.add(roleClient, peer.Config{Addr: "client:9020"}); err != nil {
		return nil, err
	}
	w.colls = []chaos.Collection{{PathExp: pathExp, Area: area, Items: items}}
	if err := w.rebuildOracle(); err != nil {
		return nil, err
	}
	// Prices are 3,5,..,33: each predicate keeps two to five items. The set
	// is cmd/loadgen's; the seed orders it.
	preds := []string{"price < 7", "price < 9", "price < 11", "price < 13",
		"price > 25", "price > 27", "price > 29", "price > 31"}
	rng.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
	for i, pr := range preds {
		pred := algebra.MustParsePredicate(pr)
		plan := algebra.NewPlan(fmt.Sprintf("hot%d", i), w.client.Addr(),
			algebra.Display(algebra.Select(pred, algebra.URN(hotURN))))
		w.qs = append(w.qs, query{
			plan: plan, pred: pred,
			body: algebra.Marshal(plan).Freeze(),
			ref: algebra.NewPlan(plan.ID, w.client.Addr(),
				algebra.Display(algebra.Select(pred, algebra.URN(namespace.EncodeURN(area))))),
		})
	}
	return w, nil
}

// --- area_fanout and churn_mixed ------------------------------------------

const metaAddr = "meta:9020"

// topologySeed fixes the garage-sale world's shape (see buildGarageSale).
const topologySeed = 1

func sellerPath(i int) string { return fmt.Sprintf("/data[id=%d]", i) }

// buildGarageSale is the three-tier garage-sale world: a meta-index over
// everything, one authoritative index per state, generated sellers below
// them, and area+price selections from workload.Queries. With churn the
// client learns routing shortcuts and submits to itself; without, it submits
// at the meta-index and nothing learns.
func buildGarageSale(name string, seed int64, sz sizes, churn bool) (*simWorld, error) {
	ns := workload.GarageSaleNamespace()
	w := newSimWorld(name, ns)
	w.distinctIDs = true
	everything := ns.MustParseArea("[*, *]")
	if _, err := w.add(roleMeta, peer.Config{Addr: metaAddr, PushSelect: true, Area: everything,
		Authoritative: true, Key: []byte("kM"), PlanCacheSize: 128}); err != nil {
		return nil, err
	}
	// Every state gets its index up front, so a seller joining later always
	// has one to register with.
	states := map[string]bool{}
	for _, city := range ns.Dimensions()[0].Leaves() {
		st := city.Truncate(2)
		if states[st.String()] {
			continue
		}
		states[st.String()] = true
		idx, err := w.add(roleIndex, peer.Config{Addr: indexAddr(st), PushSelect: true,
			Area:          namespace.NewArea(namespace.NewCell(st, hierarchy.Top)),
			Authoritative: true, Key: []byte("kI"), PlanCacheSize: 128})
		if err != nil {
			return nil, err
		}
		if err := idx.RegisterWith(metaAddr, catalog.RoleIndex); err != nil {
			return nil, err
		}
	}
	// Who sells what where, and which areas buyers ask for, come from a fixed
	// seed: they decide how many servers a plan visits, and a workload whose
	// cost moved by half between seeds could gate nothing. The run's seed
	// deals out every price (see spread) and orders the queries.
	rng := rand.New(rand.NewSource(seed))
	sellers := workload.GarageSale(ns, workload.GarageSaleConfig{
		Seed: topologySeed, Sellers: sz.sellers, ItemsPerSeller: sz.itemsPerSeller, SpecialtyZipf: 1.3})
	prices := spread(rng, sz.sellers*sz.itemsPerSeller, 1, 200)
	var sellerPeers []*peer.Peer
	for i, s := range sellers {
		for j, it := range s.Items {
			s.Items[j] = reprice(it, prices[i*sz.itemsPerSeller+j])
		}
		sp, err := w.addSeller(s, sellerPath(i))
		if err != nil {
			return nil, err
		}
		sellerPeers = append(sellerPeers, sp)
	}
	ccfg := peer.Config{Addr: "buyer:9020", Key: []byte("kB")}
	w.entry = metaAddr
	if churn {
		ccfg.LearnShortcuts = true
		w.entry = ccfg.Addr
	}
	var err error
	if w.client, err = w.add(roleClient, ccfg); err != nil {
		return nil, err
	}
	if err := w.client.Catalog().Register(catalog.Registration{
		Addr: metaAddr, Role: catalog.RoleMetaIndex, Area: everything, Authoritative: true,
	}); err != nil {
		return nil, err
	}
	if err := w.rebuildOracle(); err != nil {
		return nil, err
	}
	for i, q := range workload.Queries(ns, topologySeed+1, sz.areaQueries, 1.3) {
		pred := algebra.MustParsePredicate(fmt.Sprintf("price < %d", q.MaxPrice))
		plan := algebra.NewPlan(fmt.Sprintf("%s-%d", name, i), w.client.Addr(),
			algebra.Display(algebra.Select(pred, algebra.URN(namespace.EncodeURN(q.Area)))))
		plan.RetainOriginal()
		w.qs = append(w.qs, query{plan: plan, ref: plan, pred: pred})
	}
	rng.Shuffle(len(w.qs), func(i, j int) { w.qs[i], w.qs[j] = w.qs[j], w.qs[i] })
	if churn {
		w.churn = &churnState{every: 16, rng: rng, shapes: rand.New(rand.NewSource(topologySeed + 2)),
			sellers: sellers, peers: sellerPeers, itemsPerSeller: sz.itemsPerSeller}
	}
	return w, nil
}

func indexAddr(state hierarchy.Path) string {
	return "idx-" + strings.ReplaceAll(state.String(), "/", "-") + ":9020"
}

// addSeller creates a seller peer, installs its collection, registers it
// with its state's index and tells the oracle.
func (w *simWorld) addSeller(s workload.Seller, pathExp string) (*peer.Peer, error) {
	sp, err := w.add(roleBase, peer.Config{Addr: s.Addr, PushSelect: true, Area: s.Area,
		Key: []byte("kS"), PlanCacheSize: 128})
	if err != nil {
		return nil, err
	}
	sp.AddCollection(peer.Collection{Name: "items", PathExp: pathExp, Area: s.Area, Items: s.Items})
	if err := sp.RegisterWith(indexAddr(s.City.Truncate(2)), catalog.RoleBase); err != nil {
		return nil, err
	}
	w.setColl(chaos.Collection{PathExp: pathExp, Area: s.Area, Items: s.Items})
	return sp, nil
}

// setColl installs or replaces one oracle collection.
func (w *simWorld) setColl(c chaos.Collection) {
	for i := range w.colls {
		if w.colls[i].PathExp == c.PathExp {
			w.colls[i] = c
			return
		}
	}
	w.colls = append(w.colls, c)
}

// churnState drives the write side of churn_mixed: one write per `every`
// reads, cycling through three kinds.
type churnState struct {
	every int
	rng   *rand.Rand
	// shapes draws which seller a write goes to, and where each joining
	// seller is and what it sells: part of the world's fixed shape, like the
	// sellers it starts with.
	shapes         *rand.Rand
	sellers        []workload.Seller
	peers          []*peer.Peer
	itemsPerSeller int
	n              int
	// joins counts fresh seller joins; joiners reuse joinSlots addresses and
	// paths round robin, so the world stops growing after joinSlots joins.
	joins   int
	joiners [joinSlots]joiner
	// Time spent in each kind of write call, for the layer metrics.
	setItems, register []time.Duration
}

const joinSlots = 8

// joiner is the current holder of a join slot and the index it registered with.
type joiner struct {
	peer  *peer.Peer
	index string
}

// write applies the next write: SetItems on a seller (new prices), a seller
// leaving and re-registering with its index, or a fresh seller joining.
// Each bumps a store or catalog generation somewhere, so read-side caches
// pay their invalidation. The oracle follows.
func (w *simWorld) write() (time.Duration, error) {
	c := w.churn
	kind := c.n % 3
	c.n++
	var root *span
	if w.tr != nil {
		root = w.tr.begin("write", w.client.Addr(), roleClient, [...]string{"setitems", "reregister", "join"}[kind])
		defer w.tr.end(root)
	}
	switch kind {
	case 0:
		i := c.shapes.Intn(len(c.sellers))
		s := &c.sellers[i]
		items := make([]*xmltree.Node, len(s.Items))
		for j, it := range s.Items {
			items[j] = reprice(it, 1+c.rng.Intn(200))
		}
		start := time.Now()
		err := c.peers[i].SetItems(sellerPath(i), items)
		d := time.Since(start)
		if err != nil {
			return d, err
		}
		c.setItems = append(c.setItems, d)
		s.Items = items
		w.setColl(chaos.Collection{PathExp: sellerPath(i), Area: s.Area, Items: items})
		return d, w.rebuildOracle()
	case 1:
		i := c.shapes.Intn(len(c.sellers))
		idx := indexAddr(c.sellers[i].City.Truncate(2))
		start := time.Now()
		err := c.peers[i].DeregisterFrom(idx, 0)
		if err == nil {
			mid := time.Now()
			err = c.peers[i].RegisterWith(idx, catalog.RoleBase)
			c.register = append(c.register, time.Since(mid))
		}
		return time.Since(start), err
	default:
		slot := c.joins % joinSlots
		c.joins++
		js := workload.GarageSale(w.ns, workload.GarageSaleConfig{
			Seed: c.shapes.Int63(), Sellers: 1, ItemsPerSeller: c.itemsPerSeller})[0]
		js.Addr = fmt.Sprintf("joiner%d:9020", slot)
		for j, price := range spread(c.rng, len(js.Items), 1, 200) {
			js.Items[j] = reprice(js.Items[j], price)
		}
		start := time.Now()
		// The joiner takes over the slot's address and path: the seller that
		// held them leaves its index first, then peer.New replaces it on the
		// network.
		if old := c.joiners[slot]; old.peer != nil {
			if err := old.peer.DeregisterFrom(old.index, 0); err != nil {
				return time.Since(start), err
			}
		}
		jp, err := w.addSeller(js, sellerPath(len(c.sellers)+slot))
		d := time.Since(start)
		if err != nil {
			return d, err
		}
		c.joiners[slot] = joiner{peer: jp, index: indexAddr(js.City.Truncate(2))}
		return d, w.rebuildOracle()
	}
}

// spread draws n values from lo..lo+span-1 that cover the range evenly in a
// seeded order. Every seed then puts the same number of items under each
// price ceiling (different items), so that workloads cost the same from seed
// to seed and a gate can tell a regression from a lucky draw.
func spread(rng *rand.Rand, n, lo, span int) []int {
	out := rng.Perm(n)
	for i, v := range out {
		out[i] = lo + v*span/n
	}
	return out
}

// reprice rebuilds a sale item with a new price. Installed items are frozen,
// so a write replaces documents instead of editing them.
func reprice(it *xmltree.Node, price int) *xmltree.Node {
	cp := xmltree.ElemAttrs(it.Name, append([]xmltree.Attr(nil), it.Attrs...)...)
	for _, c := range it.Children {
		if c.Name == "price" {
			cp.Add(xmltree.ElemText("price", fmt.Sprint(price)))
		} else {
			cp.Add(c.Clone())
		}
	}
	return cp
}

// --- bulk_join --------------------------------------------------------------

const (
	cdsURN    = "urn:Demo:CDs"
	tracksURN = "urn:Demo:Tracks"
)

// joinData is the Fig. 3 input shared by bulk_join and tcp_chain: the CD and
// track-listing collections and the 8 price predicates of the query list.
type joinData struct {
	sales, listings []*xmltree.Node
	preds           []algebra.Predicate
}

func genJoinData(seed int64, sz sizes) joinData {
	d := joinData{}
	rng := rand.New(rand.NewSource(seed))
	// The catalog's titles do not depend on its seed; its prices are dealt
	// out again below.
	d.sales, d.listings = workload.CDCatalog(1, sz.cds)
	for i, price := range spread(rng, sz.cds, 3, 25) {
		d.sales[i] = reprice(d.sales[i], price).Freeze()
	}
	for _, it := range d.listings {
		it.Freeze()
	}
	// Prices cover 3..27 evenly: ceilings 8..22 keep a fifth to four fifths
	// of the CDs, each with its three listings.
	for _, t := range rng.Perm(8) {
		d.preds = append(d.preds, algebra.MustParsePredicate(fmt.Sprintf("price < %d", 8+2*t)))
	}
	return d
}

// joinPlan is the Fig. 3 CD x track-listing join over two alias URNs.
func joinPlan(id, target string, pred algebra.Predicate) *algebra.Plan {
	p := algebra.NewPlan(id, target, algebra.Display(
		algebra.JoinNamed("cd", "cd", "sale", "listing",
			algebra.Select(pred, algebra.URN(cdsURN)), algebra.URN(tracksURN))))
	p.RetainOriginal()
	return p
}

// joinRef is the same join with the collections inline, for the central
// evaluation.
func (d joinData) joinRef(id string, pred algebra.Predicate) *algebra.Plan {
	return algebra.NewPlan(id, "oracle", algebra.Display(
		algebra.JoinNamed("cd", "cd", "sale", "listing",
			algebra.Select(pred, algebra.Data(d.sales...)), algebra.Data(d.listings...))))
}

// buildBulkJoin is the paper's Fig. 3 join on simnet: an alias server that
// only binds the two URNs, a CD base server and a track-listing base server,
// with a payload store on every peer.
func buildBulkJoin(seed int64, sz sizes) (*simWorld, error) {
	ns := workload.GarageSaleNamespace()
	w := newSimWorld("bulk_join", ns)
	w.distinctIDs = true
	w.entry = "alias:9020"
	d := genJoinData(seed, sz)
	alias, err := w.add(roleMeta, peer.Config{Addr: w.entry, PushSelect: true, Key: []byte("kA"),
		PlanCacheSize: 128, Blobs: blobstore.New()})
	if err != nil {
		return nil, err
	}
	const pathExp = "/data"
	for _, b := range []struct {
		addr, urn string
		items     []*xmltree.Node
	}{{"cds:9020", cdsURN, d.sales}, {"tracks:9020", tracksURN, d.listings}} {
		bp, err := w.add(roleBase, peer.Config{Addr: b.addr, PushSelect: true, Key: []byte("k" + b.addr),
			PlanCacheSize: 128, Blobs: blobstore.New()})
		if err != nil {
			return nil, err
		}
		bp.AddCollection(peer.Collection{Name: "items", PathExp: pathExp, Items: b.items})
		alias.Catalog().AddAlias(b.urn, "http://"+b.addr+pathExp)
	}
	if w.client, err = w.add(roleClient, peer.Config{Addr: "client:9020", Key: []byte("kC"),
		Blobs: blobstore.New()}); err != nil {
		return nil, err
	}
	for i, pred := range d.preds {
		id := fmt.Sprintf("bulk_join-%d", i)
		w.qs = append(w.qs, query{plan: joinPlan(id, w.client.Addr(), pred), ref: d.joinRef(id, pred), pred: pred})
	}
	return w, nil
}
