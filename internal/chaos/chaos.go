// Package chaos is the fault-injection differential harness: it generates
// seeded random deployments (topologies, catalogs, collections, query
// workloads) of the mutant-query-plan system, runs them on simnet's
// deterministic event-queue scheduler with injected faults — message drops,
// duplicates, reordering, transient partitions, peer crash/restart windows —
// and differentially checks every run against a centralized oracle
// (oracle.go) that evaluates each plan over the union of all data.
//
// Every scenario is a pure function of its seed: a failure anywhere replays
// exactly with `make chaos SEED=<seed>` (or `go run ./cmd/chaos -seed N`).
//
// The invariants each scenario enforces:
//
//  1. Oracle bounds — every full result delivered to the client lies within
//     the oracle's [lower, upper] bounds for that plan, as multisets of
//     canonical XML items: lower ⊆ result ⊆ upper, which is equality unless
//     peers joined mid-run (large worlds, large.go). Every explicit partial
//     result (the routing layer exhausted all productive hops —
//     internal/route) is ⊆ upper. Count plans are range-checked on the
//     scalar. Faults may lose plans; they must never corrupt answers.
//  2. Trail/hop consistency — every provenance trail verifies against the
//     scenario keyring, names only servers the plan was actually delivered
//     to, carries non-decreasing virtual times, and has no more processing
//     stops than the result took hops; the plan-carried visited-server
//     memory names only servers that also signed the trail (visited ⊆
//     trail).
//  3. No silently lost plans — every submitted plan either completes (full
//     or partial), or surfaces through a peer's StuckErrors()/a submit
//     error, or its loss is attributed to a recorded network fault (dropped
//     or lost message).
//  4. Race-clean frozen reads — the oracle evaluates concurrently with the
//     network pump while aliasing the same frozen collection items, so
//     `go test -race ./internal/chaos` stresses the freeze/COW ownership
//     rule: anything that keeps a received subtree must Freeze() it, and
//     frozen subtrees are read lock-free from many goroutines.
//  5. Fault-free liveness — with no faults injected, zero plans end up
//     stuck: visited-server routing memory turns every former livelock
//     (empty-area meta/index ping-pong, dual-seller decline bounces) into a
//     completed or partial result.
//
// One checker (checkInvariants) enforces 1–3 and 5 for both world sizes,
// over an outcome: the scheduler's trace records, the client's results and
// the peers' stuck errors.
package chaos

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/blobstore"
	"repro/internal/catalog"
	"repro/internal/hierarchy"
	"repro/internal/mqp"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/provenance"
	"repro/internal/route"
	"repro/internal/simnet"
	"repro/internal/workload"
	"repro/internal/world"
)

// Level selects the fault intensity of a scenario.
type Level int

// Fault levels. LevelMixed (the zero value) derives the intensity from the
// scenario seed, so a sweep covers the whole range.
const (
	LevelMixed Level = iota
	LevelNone
	LevelLight
	LevelHeavy
)

func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelLight:
		return "light"
	case LevelHeavy:
		return "heavy"
	default:
		return "mixed"
	}
}

// ParseLevel converts a level name; unknown names return LevelMixed.
func ParseLevel(s string) Level {
	switch s {
	case "none":
		return LevelNone
	case "light":
		return LevelLight
	case "heavy":
		return LevelHeavy
	default:
		return LevelMixed
	}
}

// Config parameterizes one scenario. Only Seed is required; the zero value
// of everything else picks seed-derived defaults.
type Config struct {
	Seed  int64
	Level Level
	// Peers > 0 switches to the large-world generator (large.go): that many
	// seller peers under layered per-state meta-indexes, checked by an
	// incremental oracle with sampled full verification. Zero keeps the
	// original small-world generator, byte-identical per seed.
	Peers int
	// Churn enables mid-run churn in large worlds: peer joins, seller
	// leaves (crash with no restart), crash/restart windows, and replica
	// promotion on the leavers.
	Churn bool
	// OracleSample is the fraction of large-world queries that get full
	// reference-oracle verification on top of the cheap incremental checks
	// every query gets; 0 defaults to 0.15, >= 1 verifies everything.
	OracleSample float64
	// Learn enables learned routing shortcuts (internal/route.Shortcuts) on
	// every peer: trails are mined for (area → server) edges, the learned
	// tier is consulted first when routing, and confirmed edges are absorbed
	// into peer catalogs. Off by default, so default sweeps exercise the
	// byte-identical non-learning path.
	Learn bool
	// Blobs gives every peer a content-addressed payload store
	// (internal/blobstore): collection installs and replica snapshots dedup
	// at rest, and repeated result freight ships by reference once the
	// receiver provably holds the fingerprint, with fetch-on-miss repair
	// under faults. Off by default, so default sweeps exercise the
	// byte-identical store-off path.
	Blobs bool
}

// Report is the outcome of one scenario. Violations empty means every
// invariant held.
type Report struct {
	Seed  int64
	Level Level
	Peers int
	Items int
	Plans int
	// Completed counts plans with at least one full result at the client;
	// Results counts deliveries (duplication can produce more than one).
	Completed int
	Results   int
	// Partial counts plans whose only deliveries were explicit partial
	// results (the routing layer exhausted every productive hop and
	// returned what was already reduced). Partials are oracle-checked
	// against the upper bound.
	Partial int
	// Stuck counts non-completed plans surfaced via StuckErrors or a
	// submit-time error; LostToFaults counts non-completed, non-stuck plans
	// whose carrier message appears in the scheduler's drop/loss trace.
	Stuck        int
	LostToFaults int
	// OracleChecked counts result-vs-oracle comparisons performed.
	OracleChecked int
	// SampledChecks counts large-world queries that additionally got full
	// reference-oracle verification (the OracleSample fraction).
	SampledChecks int
	// Joined, Left, Promoted and PromotionsRefused count large-world churn
	// events: peers that joined mid-run, sellers that left for good (crash
	// with no restart), replicas promoted to authoritative in their place,
	// and promotions refused because the replica's staleness bound was
	// already exhausted.
	Joined, Left, Promoted, PromotionsRefused int
	// Shortcuts aggregates the learned-routing tables of every peer at the
	// end of a Config.Learn scenario (all-zero with learning off).
	Shortcuts route.ShortcutStats
	// Blobs aggregates every peer's payload-store wire counters at the end
	// of a Config.Blobs scenario (all-zero with stores off). FetchFailures
	// feed the stuck/lost accounting, never silent loss.
	Blobs peer.BlobNetStats
	// BlobBytes and BlobLogicalBytes sum resident vs logical store bytes
	// across peers; logical/resident > 1 means dedup at rest happened.
	BlobBytes, BlobLogicalBytes int64
	// Events counts scheduler events pumped (deliveries plus control
	// events) while the queries ran; world setup runs inline and is not
	// counted.
	Events int
	// OracleTime is the wall time the oracle goroutine spent computing
	// bounds and sampled reference checks — the budget the incremental
	// oracle must keep affordable at 10³–10⁴ peers (bench-chaos records
	// it per scenario). Wall time, so excluded from Summary.
	OracleTime  time.Duration
	Messages    int64
	DroppedMsgs int
	LostMsgs    int
	Violations  []string
	// StuckDetails holds the stuck-error messages recorded by all peers, for
	// replay diagnosis (cmd/chaos -v prints them).
	StuckDetails []string
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

func (r *Report) violate(format string, args ...interface{}) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Summary renders a one-line digest for logs. The churn columns
// (joined/left/promoted/refused) make large-world replays diagnosable at a
// glance; small worlds print them as zeros.
func (r *Report) Summary() string {
	return fmt.Sprintf("seed=%d level=%s peers=%d plans=%d completed=%d partial=%d stuck=%d lost=%d joined=%d left=%d promoted=%d refused=%d msgs=%d dropped=%d violations=%d",
		r.Seed, r.Level, r.Peers, r.Plans, r.Completed, r.Partial, r.Stuck, r.LostToFaults,
		r.Joined, r.Left, r.Promoted, r.PromotionsRefused,
		r.Messages, r.DroppedMsgs, len(r.Violations))
}

// The client submits every query; the meta-index sits above all others.
const (
	metaAddr   = "meta:9020"
	clientAddr = "client:9020"
)

// planCase is one submitted query and the oracle's verdict on it. shape is
// genPlanShape's index; sampled marks the large-world queries that get full
// reference verification.
type planCase struct {
	id        string
	oracle    *algebra.Plan // pristine clone the oracle evaluates
	submitErr error
	shape     int
	sampled   bool
	// lower and upper bound every result; they are one map unless the
	// answer depends on whether a mid-run join was seen. Set on the oracle
	// goroutine.
	lower, upper map[string]int
	// mismatch is a sampled case's oracle-vs-oracle violation, "" when the
	// two oracles agree.
	mismatch string
}

// scenario is one generated world, ready to pump. The small and large
// generators each build it in their own rng draw order, which is what keeps
// every seed's outcome stable; everything after that is shared. A chaos
// peer's provenance key is its address.
type scenario struct {
	*world.World
	cfg    Config
	rep    *Report
	client *peer.Peer
	cases  []*planCase
	// bound sets one case's lower and upper (and mismatch); it runs on the
	// oracle goroutine, concurrently with the pump.
	bound func(pc *planCase) error
	// contains is the union-membership fabrication check for item-preserving
	// shapes, or nil where bounds equality already implies it.
	contains func(map[string]int) (bool, string)
}

func newScenario(cfg Config, ns *namespace.Namespace) *scenario {
	w := world.New(ns)
	// Legitimate routing in these topologies is a handful of hops; a tight
	// depth bound makes forwarding cycles (e.g. a plan bouncing between an
	// authoritative meta and an index that both lack the data) surface as
	// stuck errors quickly, instead of breeding hundreds of hops' worth of
	// duplicated traffic first.
	w.Net.SetMaxDepth(40)
	return &scenario{World: w, cfg: cfg, rep: &Report{Seed: cfg.Seed, Level: cfg.Level}}
}

// Run generates and executes one scenario and checks every invariant.
// The returned error covers harness failures (a bug in the generator or
// oracle); invariant violations land in the Report instead.
func Run(cfg Config) (*Report, error) {
	w, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	out, err := w.execute()
	if err != nil {
		return w.rep, err
	}
	checkInvariants(w.rep, out, w.cases, w.contains)
	collectShortcutStats(w.rep, w.Peers)
	collectBlobStats(w.rep, w.Peers)
	return w.rep, nil
}

// generate builds the scenario's world with the generator cfg selects.
func generate(cfg Config) (*scenario, error) {
	if cfg.Peers > 0 {
		return genLarge(cfg)
	}
	return genSmall(cfg)
}

// genSmall builds a garage-sale world of 3–8 sellers, flat or layered,
// checked against the processor-based Oracle.
func genSmall(cfg Config) (*scenario, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ns := workload.GarageSaleNamespace()
	w := newScenario(cfg, ns)
	rep := w.rep

	nSellers := 3 + rng.Intn(6)
	itemsPer := 2 + rng.Intn(4)
	zipf := 1.2 + rng.Float64()*0.8
	layered := rng.Float64() < 0.5
	sellerStats := rng.Float64() < 0.5
	prune := sellerStats && rng.Float64() < 0.5
	pushSelect := rng.Float64() < 0.7

	sellers := workload.GarageSale(ns, workload.GarageSaleConfig{
		Seed: rng.Int63(), Sellers: nSellers, ItemsPerSeller: itemsPer, SpecialtyZipf: zipf,
	})

	w.Peer(w.peerConfig(peer.Config{Addr: metaAddr, PushSelect: pushSelect,
		Area: ns.Everything(), Authoritative: true, PruneStats: prune}))

	// One authoritative index server per state in layered deployments.
	indexes := map[string]string{} // state path -> index addr
	var indexAddrs []string
	if layered {
		for _, s := range sellers {
			st := s.City.Truncate(2).String()
			if _, ok := indexes[st]; ok {
				continue
			}
			addr := "idx-" + strings.ReplaceAll(st, "/", "-") + ":9020"
			area := namespace.NewArea(namespace.NewCell(s.City.Truncate(2), hierarchy.Top))
			w.Join(w.Peer(w.peerConfig(peer.Config{Addr: addr, PushSelect: pushSelect,
				Area: area, Authoritative: true, PruneStats: prune})), metaAddr, catalog.RoleIndex)
			indexes[st] = addr
			indexAddrs = append(indexAddrs, addr)
		}
		sort.Strings(indexAddrs)
	}

	var oracleColls []Collection
	for i, s := range sellers {
		pcfg := peer.Config{Addr: s.Addr, PushSelect: pushSelect, Area: s.Area}
		switch rng.Intn(3) {
		case 0:
			// Default: plans travel to the data (ForwardOnlyPolicy).
		case 1:
			pcfg.Policy = mqp.DefaultPolicy{}
		case 2:
			pcfg.Policy = mqp.DefaultPolicy{MaxReduceCard: 4}
		}
		if sellerStats {
			pcfg.StatsHistPath = "price"
			pcfg.StatsKeyPaths = []string{"category"}
		}
		pathExp := fmt.Sprintf("/chaos[s=%d]", i)
		up := metaAddr
		if layered {
			up = indexes[s.City.Truncate(2).String()]
		}
		w.Base(w.peerConfig(pcfg), peer.Collection{Name: "items", PathExp: pathExp, Area: s.Area, Items: s.Items}, up)
		rep.Items += len(s.Items)
		// The collection items are frozen by AddCollection; the oracle
		// aliases exactly the documents the live network serves.
		oracleColls = append(oracleColls, Collection{PathExp: pathExp, Area: s.Area, Items: s.Items})
	}

	w.addClient()
	if err := w.Err(); err != nil {
		return nil, err
	}
	rep.Peers = len(w.Peers)

	oracle, err := NewOracle(ns, oracleColls)
	if err != nil {
		return nil, err
	}
	w.bound = func(pc *planCase) error {
		items, err := oracle.Evaluate(pc.oracle)
		pc.lower = Multiset(items)
		pc.upper = pc.lower
		return err
	}

	// --- Fault schedule --------------------------------------------------
	// The world is built inline (registrations deliver synchronously); only
	// query traffic runs under the scheduler and its faults.
	faultable, nCrashes, wantPartition := w.startFaults(rng)
	const horizon = 800 * time.Millisecond
	for i := 0; i < nCrashes && len(faultable) > 0; i++ {
		addr := faultable[rng.Intn(len(faultable))]
		from := time.Duration(rng.Int63n(int64(horizon)))
		until := from + 50*time.Millisecond + time.Duration(rng.Int63n(int64(250*time.Millisecond)))
		if rng.Float64() < 0.2 {
			until = 0 // crash with no restart
		}
		w.Net.ScheduleCrash(addr, from, until)
	}
	if wantPartition {
		w.cutPartition(rng, faultable)
	}

	// --- Workload --------------------------------------------------------
	nPlans := 2 + rng.Intn(5)
	for i := 0; i < nPlans; i++ {
		area, maxPrice := genQuery(ns, sellers, rng, zipf)
		plan, shape := genPlanShape(rng, fmt.Sprintf("chaos-%d-q%d", cfg.Seed, i), clientAddr, area, maxPrice, ns)
		if rng.Float64() < 0.5 {
			plan.RetainOriginal()
		}
		if rng.Float64() < 0.3 {
			mqp.SetPrefs(plan, mqp.Prefs{BudgetMS: 100 + rng.Intn(400), PreferCurrent: rng.Float64() < 0.5})
		}
		entry := metaAddr
		if layered && len(indexAddrs) > 0 && rng.Float64() < 0.4 {
			entry = indexAddrs[rng.Intn(len(indexAddrs))]
		}
		// Whole microseconds: virtual time is µs-granular on the wire
		// (provenance visit times), so finer submission offsets would not
		// survive a serialization round trip.
		at := time.Duration(rng.Int63n(500_000)) * time.Microsecond
		w.submit(plan, shape, false, entry, at)
	}
	return w, nil
}

// peerConfig is cfg with the settings every chaos peer shares.
func (w *scenario) peerConfig(pcfg peer.Config) peer.Config {
	pcfg.Key = []byte(pcfg.Addr)
	// Every chaos peer runs the prepared-plan cache so the differential
	// oracle continuously validates cache hits against live processing:
	// any divergence a cached step introduces (wrong payload, wrong
	// provenance, wrong route) trips an invariant. Peers stay
	// synchronous (Workers=0) — scheduled delivery owns determinism.
	pcfg.PlanCacheSize = 32
	if w.cfg.Learn {
		pcfg.LearnShortcuts = true
		// Chaos keys are the peer addresses; mining verifies trails
		// against the same keyring the invariant checks use.
		pcfg.Keyring = func(server string) []byte { return []byte(server) }
	}
	if w.cfg.Blobs {
		pcfg.Blobs = blobstore.New()
	}
	return pcfg
}

// addClient adds the client every query is submitted from, pointed at the
// meta-index.
func (w *scenario) addClient() {
	w.client = w.Peer(w.peerConfig(peer.Config{Addr: clientAddr}))
	w.Knows(w.client, metaAddr, w.NS.Everything())
}

// startFaults switches the world to seeded scheduled delivery under the
// level's faults. It returns the peers crashes and partitions may hit
// (every peer but the client, sorted), the level's crash count, and whether
// to cut a partition.
func (w *scenario) startFaults(rng *rand.Rand) (faultable []string, nCrashes int, wantPartition bool) {
	w.Net.UseScheduler(rng.Int63())
	w.Net.SetTraceKey(planIDOf)
	faults, nCrashes, wantPartition := levelFaults(w.cfg.Level, rng)
	w.Net.SetFaults(faults)
	for _, addr := range sortedAddrs(w.Peers) {
		if addr != clientAddr {
			faultable = append(faultable, addr)
		}
	}
	return faultable, nCrashes, wantPartition
}

// cutPartition splits the faultable peers in two for a seeded window.
func (w *scenario) cutPartition(rng *rand.Rand, faultable []string) {
	if len(faultable) < 2 {
		return
	}
	split := append([]string(nil), faultable...)
	rng.Shuffle(len(split), func(i, j int) { split[i], split[j] = split[j], split[i] })
	cut := 1 + rng.Intn(len(split)-1)
	from := time.Duration(rng.Int63n(int64(400 * time.Millisecond)))
	until := from + time.Duration(rng.Int63n(int64(300*time.Millisecond)))
	w.Net.Partition(split[:cut], split[cut:], from, until)
}

// submit sends plan from the client to entry at virtual time at, and keeps
// a pristine clone for the oracle.
func (w *scenario) submit(plan *algebra.Plan, shape int, sampled bool, entry string, at time.Duration) {
	pc := &planCase{id: plan.ID, oracle: plan.Clone(), shape: shape, sampled: sampled}
	pc.submitErr = w.Net.Send(&simnet.Message{
		From: clientAddr, To: entry, Kind: peer.KindMQP,
		Body: algebra.Marshal(plan), At: at,
	})
	w.cases = append(w.cases, pc)
}

// execute pumps the network to exhaustion with the oracle goroutine
// computing every case's bounds beside it, over the same frozen items
// (invariant 4), and returns the outcome the invariants are checked on.
func (w *scenario) execute() (outcome, error) {
	rep := w.rep
	rep.Plans = len(w.cases)
	errs := make([]error, len(w.cases))
	var oracleTime time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		began := time.Now()
		for i, pc := range w.cases {
			errs[i] = w.bound(pc)
		}
		oracleTime = time.Since(began)
	}()
	events, err := w.Net.Run()
	if err != nil {
		rep.violate("scheduler: %v", err)
	}
	wg.Wait()
	rep.Events = events
	rep.OracleTime = oracleTime
	rep.Messages = w.Net.Metrics().Messages
	for _, err := range errs {
		if err != nil {
			return outcome{}, err
		}
	}
	for _, pc := range w.cases {
		if pc.sampled {
			rep.SampledChecks++
		}
		if pc.mismatch != "" {
			rep.violate("%s", pc.mismatch)
		}
	}

	out := outcome{trace: w.Net.SchedTrace(), results: w.client.Results(),
		keyring: func(server string) []byte {
			if w.Peers[server] == nil {
				return nil // no key: a visit signed by a non-peer cannot verify
			}
			return []byte(server)
		}}
	for _, addr := range sortedAddrs(w.Peers) {
		for _, err := range w.Peers[addr].StuckErrors() {
			out.stuck = append(out.stuck, err.Error())
		}
	}
	return out, nil
}

// genQuery picks a query area and price ceiling. Most queries target a
// seller's cell (buyers look for what sellers sell); the rest are uniform,
// so provably-empty areas and authoritative empty bindings stay covered.
func genQuery(ns *namespace.Namespace, sellers []workload.Seller, rng *rand.Rand, zipf float64) (namespace.Area, int) {
	if rng.Float64() < 0.75 {
		s := sellers[rng.Intn(len(sellers))]
		loc := s.City
		if rng.Intn(3) == 0 {
			loc = loc.Parent()
		}
		return namespace.NewArea(namespace.NewCell(loc, s.Spec)), 10 + rng.Intn(150)
	}
	q := workload.Queries(ns, rng.Int63(), 1, zipf)[0]
	return q.Area, q.MaxPrice
}

// Plan shapes that synthesize documents instead of passing items through;
// the other three (select, union, difference) are item-preserving.
const (
	shapeCount   = 1
	shapeProject = 3
)

// genPlanShape builds one of the harness's plan shapes over the area and
// returns its index. Every shape has exact multiset semantics both
// centrally and distributed (TopN is deliberately absent: its answer is
// order-sensitive under ties).
func genPlanShape(rng *rand.Rand, id, target string, area namespace.Area, maxPrice int, ns *namespace.Namespace) (*algebra.Plan, int) {
	urn := func() *algebra.Node { return algebra.URN(namespace.EncodeURN(area)) }
	pred := algebra.MustParsePredicate(fmt.Sprintf("price < %d", maxPrice))
	var body *algebra.Node
	shape := rng.Intn(5)
	switch shape {
	case 0:
		body = algebra.Select(pred, urn())
	case shapeCount:
		body = algebra.Count(algebra.Select(pred, urn()))
	case 2:
		// Union of the area with a generalized copy of it.
		wide := ns.Generalize(area)
		body = algebra.Select(pred, algebra.Union(urn(), algebra.URN(namespace.EncodeURN(wide))))
	case shapeProject:
		body = algebra.Project("hit", []string{"name", "price", "city"}, algebra.Select(pred, urn()))
	default:
		// Mid-price band: cheap items subtracted from the full selection.
		low := algebra.MustParsePredicate(fmt.Sprintf("price < %d", 1+maxPrice/2))
		body = algebra.Difference(algebra.Select(pred, urn()), algebra.Select(low, urn()))
	}
	return algebra.NewPlan(id, target, algebra.Display(body)), shape
}

// levelFaults maps a fault level to scheduler fault probabilities, a crash
// count, and whether to cut a partition.
func levelFaults(level Level, rng *rand.Rand) (simnet.Faults, int, bool) {
	switch level {
	case LevelNone:
		return simnet.Faults{}, 0, false
	case LevelLight:
		return simnet.Faults{Drop: 0.03, Duplicate: 0.02, Reorder: 0.2},
			rng.Intn(2), rng.Float64() < 0.15
	case LevelHeavy:
		return simnet.Faults{Drop: 0.12, Duplicate: 0.08, Reorder: 0.5},
			1 + rng.Intn(2), rng.Float64() < 0.4
	default: // LevelMixed: seed-derived intensity across the whole range.
		scale := rng.Float64()
		return simnet.Faults{
				Drop:      0.15 * scale * rng.Float64(),
				Duplicate: 0.10 * scale * rng.Float64(),
				Reorder:   0.6 * scale,
			},
			rng.Intn(3), rng.Float64() < 0.3
	}
}

// collectShortcutStats sums the learned-routing tables across peers into the
// report; all-zero when the scenario ran without Config.Learn.
func collectShortcutStats(rep *Report, peers map[string]*peer.Peer) {
	for _, addr := range sortedAddrs(peers) {
		s := peers[addr].Shortcuts()
		if s == nil {
			continue
		}
		st := s.Stats()
		rep.Shortcuts.Hits += st.Hits
		rep.Shortcuts.Misses += st.Misses
		rep.Shortcuts.Learned += st.Learned
		rep.Shortcuts.Expired += st.Expired
		rep.Shortcuts.Invalidated += st.Invalidated
		rep.Shortcuts.Entries += st.Entries
	}
}

// collectBlobStats sums the payload-store wire counters and residency
// across peers; all-zero when the scenario ran without Config.Blobs.
func collectBlobStats(rep *Report, peers map[string]*peer.Peer) {
	for _, addr := range sortedAddrs(peers) {
		p := peers[addr]
		st := p.BlobNetStats()
		rep.Blobs.ByRefSent += st.ByRefSent
		rep.Blobs.ByRefBytes += st.ByRefBytes
		rep.Blobs.RefsResolved += st.RefsResolved
		rep.Blobs.Fetches += st.Fetches
		rep.Blobs.FetchRetries += st.FetchRetries
		rep.Blobs.FetchFailures += st.FetchFailures
		rep.Blobs.FetchServed += st.FetchServed
		rep.Blobs.Taught += st.Taught
		if s := p.BlobStore(); s != nil {
			ss := s.Stats()
			rep.BlobBytes += ss.Bytes
			rep.BlobLogicalBytes += ss.LogicalBytes
		}
	}
}

// sortedAddrs returns the peer map's keys in deterministic order.
func sortedAddrs(peers map[string]*peer.Peer) []string { return slices.Sorted(maps.Keys(peers)) }

// planIDOf names a trace record by the plan id its message carries, or "".
func planIDOf(m *simnet.Message) string {
	if m.Body == nil || m.Body.Name != "mqp" {
		return ""
	}
	return m.Body.AttrDefault("id", "")
}

// outcome is what an executed scenario leaves for checkInvariants: the
// scheduler's trace records, the client's results, every peer's stuck
// errors (in peer-address order) and the keyring trails verify against.
type outcome struct {
	trace   simnet.Trace
	results []peer.Result
	stuck   []string
	keyring func(server string) []byte
}

// checkInvariants evaluates invariants 1–3 and 5 on one outcome. Each case
// carries its oracle bounds; contains, when non-nil, is the fabrication
// check for item-preserving shapes.
func checkInvariants(rep *Report, out outcome, cases []*planCase, contains func(map[string]int) (bool, string)) {
	rep.DroppedMsgs = len(out.trace.Dropped)
	rep.LostMsgs = len(out.trace.Lost)
	rep.StuckDetails = out.stuck

	// Plans a fault removed a message of, and (plan, server) deliveries.
	faulted := map[string]bool{}
	for _, recs := range [][]simnet.TraceRec{out.trace.Dropped, out.trace.Lost} {
		for _, r := range recs {
			faulted[r.Key] = true
		}
	}
	delivered := map[[2]string]bool{}
	for _, r := range out.trace.Delivered {
		delivered[[2]string{r.Key, r.To}] = true
	}
	// Stuck errors are attributed by the quoted plan id.
	stuckFor := func(id string) bool {
		needle := fmt.Sprintf("%q", id)
		for _, d := range out.stuck {
			if strings.Contains(d, needle) {
				return true
			}
		}
		return false
	}

	results := map[string][]peer.Result{}
	for _, res := range out.results {
		results[res.Plan.ID] = append(results[res.Plan.ID], res)
		rep.Results++
	}
	known := map[string]bool{}
	for _, pc := range cases {
		known[pc.id] = true
	}
	for id := range results {
		if !known[id] {
			rep.violate("phantom result for never-submitted plan %q", id)
		}
	}

	for _, pc := range cases {
		rs := results[pc.id]
		full := 0
		for _, res := range rs {
			if !res.Partial {
				full++
			}
		}
		switch {
		case full > 0:
			rep.Completed++
		case len(rs) > 0:
			rep.Partial++
		case pc.submitErr != nil || stuckFor(pc.id):
			rep.Stuck++
			if rep.Level == LevelNone && rep.Left == 0 && rep.PromotionsRefused == 0 {
				// Invariant 5: a fault-free, churn-free network must never
				// strand a plan — with visited-server routing memory, every
				// plan terminates as a completed or partial result. Leaves
				// and refused promotions legitimately strand plans over the
				// departed data.
				rep.violate("plan %q stuck in a fault-free run", pc.id)
			}
		case faulted[pc.id]:
			rep.LostToFaults++
		default:
			rep.violate("plan %q silently lost: no result, no stuck error, no recorded fault", pc.id)
		}

		for _, res := range rs {
			items, err := res.Plan.Results()
			if err != nil {
				rep.violate("plan %q: non-constant result: %v", pc.id, err)
				continue
			}
			rep.OracleChecked++
			checkAnswer(rep, pc, res.Partial, Multiset(items), contains)

			// Invariant 2: trail/hop consistency.
			trail, err := peer.QueryTrail(res)
			if err != nil {
				rep.violate("plan %q: bad provenance: %v", pc.id, err)
				continue
			}
			if idx, err := trail.Verify(out.keyring); err != nil {
				rep.violate("plan %q: trail visit %d fails verification: %v", pc.id, idx, err)
			}
			// The plan-carried routing memory must be consistent with the
			// signed trail: every server the <visited> section names also
			// signed a visit (visited ⊆ trail).
			if missing := provenance.UncoveredVisits(res.Plan, trail); len(missing) > 0 {
				rep.violate("plan %q: visited memory names %v, absent from the provenance trail",
					pc.id, missing)
			}
			stops := 0
			prevServer := ""
			var prevAt time.Duration
			for vi, v := range trail.Visits {
				if v.Server != prevServer {
					stops++
					prevServer = v.Server
				}
				if !delivered[[2]string{pc.id, v.Server}] {
					rep.violate("plan %q: trail names %s, which never received the plan", pc.id, v.Server)
				}
				if v.At < prevAt {
					rep.violate("plan %q: trail time goes backwards at visit %d (%v < %v)", pc.id, vi, v.At, prevAt)
				}
				prevAt = v.At
			}
			// Hops is counted by simnet as the plan crosses links; it is
			// the one input here no other transport fills.
			if stops+1 > res.Hops {
				rep.violate("plan %q: %d processing stops need at least %d hops, result took %d",
					pc.id, stops, stops+1, res.Hops)
			}
		}
	}
	if rep.Completed+rep.Partial+rep.Stuck+rep.LostToFaults != rep.Plans {
		rep.violate("accounting: completed %d + partial %d + stuck %d + lost %d != plans %d",
			rep.Completed, rep.Partial, rep.Stuck, rep.LostToFaults, rep.Plans)
	}
}

// checkAnswer is invariant 1 for one result: a full result within
// [lower, upper], a partial within upper, a count range-checked as a
// scalar, and — with contains — nothing fabricated by an item-preserving
// shape.
func checkAnswer(rep *Report, pc *planCase, partial bool, got map[string]int, contains func(map[string]int) (bool, string)) {
	switch {
	case pc.shape == shapeCount:
		// Count answers are scalars, not monotone multisets: a query
		// racing a join may legitimately count any world between the
		// bounds, so <count>6</count> can match neither bound document.
		// Range-check the value instead.
		n, ok := countOf(got)
		lo, okLo := countOf(pc.lower)
		hi, okHi := countOf(pc.upper)
		switch {
		case partial && len(got) == 0:
			// Nothing was reduced before the routing layer gave up — an
			// empty partial, vacuously within bounds.
		case !ok || !okLo || !okHi:
			rep.violate("plan %q: count plan produced a non-count answer", pc.id)
		case partial && n > hi:
			rep.violate("plan %q: partial count %d exceeds oracle upper bound %d", pc.id, n, hi)
		case !partial && (n < lo || n > hi):
			rep.violate("plan %q: count %d outside oracle bounds [%d, %d]", pc.id, n, lo, hi)
		}
	case partial:
		if ok, diff := MultisetSubset(got, pc.upper); !ok {
			rep.violate("plan %q: partial result exceeds oracle upper bound: %s", pc.id, diff)
		}
	default:
		if ok, diff := MultisetSubset(pc.lower, got); !ok {
			rep.violate("plan %q: result misses oracle lower bound: %s", pc.id, diff)
		}
		if ok, diff := MultisetSubset(got, pc.upper); !ok {
			rep.violate("plan %q: result exceeds oracle upper bound: %s", pc.id, diff)
		}
	}
	if contains != nil && pc.shape != shapeCount && pc.shape != shapeProject {
		if ok, diff := contains(got); !ok {
			rep.violate("plan %q: %s", pc.id, diff)
		}
	}
}

// countOf extracts the scalar from a count-shape answer multiset: exactly
// one <count>N</count> document.
func countOf(ms map[string]int) (int, bool) {
	for k, mult := range ms {
		var n int
		_, err := fmt.Sscanf(k, "<count>%d</count>", &n)
		return n, err == nil && mult == 1 && len(ms) == 1
	}
	return 0, false
}
