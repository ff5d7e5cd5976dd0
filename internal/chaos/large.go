// The large-world chaos generator: 10³–10⁴ peers under hierarchic areas,
// mid-run churn, replica promotion, and the incremental oracle
// (incremental.go). Config.Peers > 0 routes Run here; it builds its world
// in its own rng draw order and then shares execution and the invariant
// checker with the small worlds of chaos.go.
//
// World shape: one meta-index server, one authoritative index server per
// state (layered over the scaled Location hierarchy), Config.Peers zipf-
// skewed sellers registered with their state's index, plus — under churn —
// joiner sellers that register mid-run, leaver sellers that crash for good,
// and replicas that promote themselves over their crashed sources.
//
// Everything the small worlds check is checked here, at the prices a large
// world can afford:
//
//   - Results are checked against the incremental oracle's [lower, upper]
//     bounds, which differ only when peers joined mid-run.
//   - Item-preserving shapes get the union-membership fabrication check.
//   - A seeded OracleSample fraction of queries is re-verified against the
//     processor-based reference Oracle built over just the relevant
//     collections — the differential check of the incremental oracle itself.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/hierarchy"
	"repro/internal/mqp"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/workload"
)

// largeHorizon bounds the virtual-time window scenario events land in.
const largeHorizon = 800 * time.Millisecond

// leaver is one seller scheduled to crash with no restart, and the replica
// (if any) that will try to promote itself in its place.
type leaver struct {
	addr      string
	pathExp   string
	idxAddr   string
	replica   *peer.Peer
	leaveAt   time.Duration
	promoteAt time.Duration
}

// joiner is one pre-generated seller that registers mid-run.
type joiner struct {
	p       *peer.Peer
	idxAddr string
	joinAt  time.Duration
}

func genLarge(cfg Config) (*scenario, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))

	// --- World -----------------------------------------------------------
	nStates := cfg.Peers / 50
	if nStates < 4 {
		nStates = 4
	}
	if nStates > 64 {
		nStates = 64
	}
	ns := workload.ScaledNamespace(nStates, 8, 8, 6)
	w := newScenario(cfg, ns)
	rep := w.rep

	zipf := cfg.Zipf
	if zipf <= 1 {
		zipf = 1.2 + rng.Float64()*0.8
	}
	sample := cfg.OracleSample
	if sample <= 0 {
		sample = 0.15
	}
	pushSelect := rng.Float64() < 0.7

	sellers := workload.GarageSale(ns, workload.GarageSaleConfig{
		Seed: rng.Int63(), Sellers: cfg.Peers, ItemsPerSeller: 2 + rng.Intn(3), SpecialtyZipf: zipf,
	})

	meta := w.Peer(w.peerConfig(peer.Config{Addr: metaAddr, PushSelect: pushSelect,
		Area: ns.Everything(), Authoritative: true}))

	// One authoritative index per state, every state — joiners may land in
	// states no initial seller picked. World build registers directly into
	// catalogs (the same records RegisterWith would push) instead of
	// through the wire: setup is driver phase, and a 10³-peer world must
	// not cost 10³ codec round trips before the scenario even starts.
	// Query traffic, mid-run joins and promotions still cross the full
	// codec.
	indexes := map[string]string{}      // state path -> index addr
	idxPeers := map[string]*peer.Peer{} // index addr -> peer
	states, err := ns.Dimensions()[0].Children(hierarchy.Top)
	if err != nil {
		return nil, err
	}
	var indexAddrs []string
	for _, st := range states {
		addr := "idx-" + strings.ReplaceAll(st.String(), "/", "-") + ":9020"
		area := namespace.NewArea(namespace.NewCell(st, hierarchy.Top))
		idx := w.Peer(w.peerConfig(peer.Config{Addr: addr, PushSelect: pushSelect,
			Area: area, Authoritative: true}))
		if err := meta.Catalog().Register(idx.Registration(catalog.RoleIndex)); err != nil {
			return nil, err
		}
		if err := idx.Catalog().Register(catalog.Registration{
			Addr: metaAddr, Role: catalog.RoleIndex, Area: ns.Everything(),
		}); err != nil {
			return nil, err
		}
		indexes[st.String()] = addr
		idxPeers[addr] = idx
		indexAddrs = append(indexAddrs, addr)
	}
	sort.Strings(indexAddrs)

	inc := NewIncOracle(ns)
	sellerPaths := make([]string, len(sellers))
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
		sp := w.Peer(w.peerConfig(pcfg))
		pathExp := fmt.Sprintf("/chaos[s=%d]", i)
		sp.AddCollection(peer.Collection{Name: "items", PathExp: pathExp, Area: s.Area, Items: s.Items})
		rep.Items += len(s.Items)
		idxAddr := indexes[s.City.Truncate(1).String()]
		if err := idxPeers[idxAddr].Catalog().Register(sp.Registration(catalog.RoleBase)); err != nil {
			return nil, err
		}
		if err := sp.Catalog().Register(catalog.Registration{
			Addr: idxAddr, Role: catalog.RoleIndex, Area: ns.Everything(),
		}); err != nil {
			return nil, err
		}
		if err := inc.Install(pathExp, s.Area, s.Items, false); err != nil {
			return nil, err
		}
		sellerPaths[i] = pathExp
	}

	w.addClient()
	if err := w.Err(); err != nil {
		return nil, err
	}

	// --- Churn cast (chosen and built inline, executed under the pump) ---
	var leavers []leaver
	var joiners []joiner
	var joinSellers []workload.Seller
	if cfg.Churn {
		nChurn := cfg.Peers / 100
		if nChurn < 1 {
			nChurn = 1
		}
		// Leavers: distinct sellers that crash for good mid-run. ~70% leave
		// a replica behind, fetched now (the source is still up) with a
		// seed-chosen staleness bound; a quarter of those carry a zero
		// bound, so their promotion MUST be refused (the snapshot is
		// already older than "current" by promotion time).
		taken := map[int]bool{}
		for len(leavers) < nChurn && len(taken) < len(sellers) {
			i := rng.Intn(len(sellers))
			if taken[i] {
				continue
			}
			taken[i] = true
			lv := leaver{
				addr:    sellers[i].Addr,
				pathExp: sellerPaths[i],
				idxAddr: indexes[sellers[i].City.Truncate(1).String()],
			}
			lv.leaveAt = 100*time.Millisecond + time.Duration(rng.Int63n(400_000))*time.Microsecond
			lv.promoteAt = lv.leaveAt + 20*time.Millisecond + time.Duration(rng.Int63n(80_000))*time.Microsecond
			if rng.Float64() < 0.7 {
				bound := 1 + rng.Intn(60)
				if rng.Float64() < 0.25 {
					bound = 0
				}
				rp := w.Peer(w.peerConfig(peer.Config{Addr: "rep-" + sellers[i].Addr,
					PushSelect: pushSelect, Area: sellers[i].Area}))
				if err := rp.ReplicateFrom(sellers[i].Addr, lv.pathExp,
					peer.Collection{Name: "items", PathExp: lv.pathExp, Area: sellers[i].Area}, bound); err != nil {
					return nil, fmt.Errorf("chaos: replica fetch from %s: %w", sellers[i].Addr, err)
				}
				lv.replica = rp
			}
			leavers = append(leavers, lv)
		}
		// Joiners: pre-generated sellers whose peers exist (unknown to any
		// catalog) and whose registration happens mid-run through the wire.
		// Their collections are installed in the oracle now, as joiners —
		// the oracle's state must be immutable once the pump starts.
		joinSellers = workload.GarageSale(ns, workload.GarageSaleConfig{
			Seed: rng.Int63(), Sellers: nChurn, ItemsPerSeller: 2 + rng.Intn(3), SpecialtyZipf: zipf,
		})
		for j := range joinSellers {
			joinSellers[j].Addr = fmt.Sprintf("joiner%03d:9020", j)
			s := joinSellers[j]
			jp := w.Peer(w.peerConfig(peer.Config{Addr: s.Addr, PushSelect: pushSelect, Area: s.Area}))
			pathExp := fmt.Sprintf("/chaos[j=%d]", j)
			jp.AddCollection(peer.Collection{Name: "items", PathExp: pathExp, Area: s.Area, Items: s.Items})
			rep.Items += len(s.Items)
			if err := inc.Install(pathExp, s.Area, s.Items, true); err != nil {
				return nil, err
			}
			joiners = append(joiners, joiner{
				p:       jp,
				idxAddr: indexes[s.City.Truncate(1).String()],
				joinAt:  100*time.Millisecond + time.Duration(rng.Int63n(500_000))*time.Microsecond,
			})
		}
	}
	rep.Peers = len(w.Peers)

	w.contains = inc.ContainsAll
	w.bound = func(pc *planCase) (err error) {
		pc.lower, pc.upper, err = inc.EvalBounds(pc.oracle)
		if err != nil || !pc.sampled {
			return err
		}
		// Sampled differential check: the processor-based reference over
		// just the relevant collections must agree with the incremental
		// oracle on both bounds.
		pc.mismatch, err = crossCheck(ns, inc, pc)
		return err
	}

	// --- Fault schedule and churn events ---------------------------------
	faultable, nCrashes, wantPartition := w.startFaults(rng)
	if cfg.Churn {
		// Crash/restart windows scale with the world: transient outages the
		// routing layer must ride out, on top of the level's own crashes.
		nCrashes += cfg.Peers / 200
	}
	for i := 0; i < nCrashes && len(faultable) > 0; i++ {
		addr := faultable[rng.Intn(len(faultable))]
		from := time.Duration(rng.Int63n(int64(largeHorizon)))
		until := from + 50*time.Millisecond + time.Duration(rng.Int63n(int64(250*time.Millisecond)))
		w.Net.ScheduleCrash(addr, from, until)
	}
	if wantPartition {
		w.cutPartition(rng, faultable)
	}
	for _, lv := range leavers {
		w.Net.ScheduleCrash(lv.addr, lv.leaveAt, 0) // no restart: a leave
		rep.Left++
		if lv.replica != nil {
			lv := lv
			w.Net.ScheduleFunc(lv.promoteAt, func() {
				err := lv.replica.Promote(lv.pathExp, lv.addr, lv.idxAddr, lv.promoteAt)
				switch {
				case err == nil:
					rep.Promoted++
				case errors.Is(err, peer.ErrStaleReplica):
					rep.PromotionsRefused++
				default:
					// The promotion itself failed (e.g. the index is inside
					// a crash window): the replica never became
					// authoritative, which the bounds tolerate.
					rep.PromotionsRefused++
				}
			})
		}
	}
	for _, jn := range joiners {
		jn := jn
		w.Net.ScheduleFunc(jn.joinAt, func() {
			if err := jn.p.RegisterWithAt(jn.idxAddr, catalog.RoleBase, jn.joinAt); err == nil {
				rep.Joined++
			}
		})
	}

	// --- Workload --------------------------------------------------------
	nPlans := 8 + rng.Intn(5) + cfg.Peers/100
	if nPlans > 40 {
		nPlans = 40
	}
	querySellers := append(append([]workload.Seller(nil), sellers...), joinSellers...)
	for i := 0; i < nPlans; i++ {
		area, maxPrice := genQuery(ns, querySellers, rng, zipf)
		plan, shape := genPlanShape(rng, fmt.Sprintf("chaos-%d-q%d", cfg.Seed, i), clientAddr, area, maxPrice, ns)
		if rng.Float64() < 0.5 {
			plan.RetainOriginal()
		}
		entry := metaAddr
		if rng.Float64() < 0.4 {
			entry = indexAddrs[rng.Intn(len(indexAddrs))]
		}
		sampled := rng.Float64() < sample
		// Whole microseconds: virtual time is µs-granular on the wire.
		at := time.Duration(rng.Int63n(600_000)) * time.Microsecond
		w.submit(plan, shape, sampled, entry, at)
	}
	return w, nil
}

// crossCheck verifies the incremental oracle's bounds for one sampled case
// against the processor-based reference Oracle built over the relevant
// collections only. It returns a violation string (empty when the oracles
// agree) or a harness error.
func crossCheck(ns *namespace.Namespace, inc *IncOracle, pc *planCase) (string, error) {
	initial, all, err := inc.Relevant(pc.oracle)
	if err != nil {
		return "", err
	}
	refUp, err := evalReference(ns, all, pc.oracle)
	if err != nil {
		return "", err
	}
	if ok, diff := MultisetEqual(refUp, pc.upper); !ok {
		return fmt.Sprintf("plan %q: incremental oracle upper bound diverges from reference: %s", pc.id, diff), nil
	}
	refLo := refUp
	if len(initial) != len(all) {
		// Joiners among the relevant collections: the lower bound needs a
		// reference run of its own.
		if refLo, err = evalReference(ns, initial, pc.oracle); err != nil {
			return "", err
		}
	}
	if ok, diff := MultisetEqual(refLo, pc.lower); !ok {
		return fmt.Sprintf("plan %q: incremental oracle lower bound diverges from reference: %s", pc.id, diff), nil
	}
	return "", nil
}

// evalReference runs one plan through a processor-based Oracle over the
// given collections and returns the answer multiset.
func evalReference(ns *namespace.Namespace, colls []Collection, plan *algebra.Plan) (map[string]int, error) {
	ref, err := NewOracle(ns, colls)
	if err != nil {
		return nil, err
	}
	items, err := ref.Evaluate(plan)
	if err != nil {
		return nil, err
	}
	return Multiset(items), nil
}
