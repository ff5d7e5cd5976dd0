// The incremental oracle: the differential reference large worlds can
// afford. The processor-based Oracle (oracle.go) re-binds every plan over
// the union of ALL collections — O(world) per query, unpayable at 10³–10⁴
// peers. IncOracle instead maintains its state under install deltas (one
// call per collection at world build, one per pre-generated joiner) and
// answers per query in O(collections overlapping the query's areas):
//
//   - EvalBounds binds a plan's URN leaves directly against an area-bucketed
//     collection index — mirroring catalog binding semantics: a collection
//     whose area overlaps the URN's area contributes all its items — and
//     evaluates the bound tree through internal/engine. That is a second,
//     independent implementation of the reference answer (no catalog, no
//     processor, no routing), which is exactly what a differential check
//     wants.
//   - Under churn the exact answer depends on delivery timing (a query
//     racing a join may legitimately miss the joiner's items), so EvalBounds
//     returns two multisets: lower (pre-churn collections only — every full
//     result must contain at least this) and upper (everything ever
//     installed — no result may exceed it). Without joins the two are the
//     same map and the check collapses to strict equality. Leaves, crashes
//     and partitions never widen the bounds: an unreachable seller makes a
//     plan partial, stuck or lost — never a full result missing its items —
//     and a promoted replica serves a byte-identical snapshot.
//   - ContainsAll is the per-result fabrication check: for item-preserving
//     plan shapes, every result item must exist in the installed union
//     multiset.
//
// The sampled differential check (large.go) cross-validates IncOracle
// itself: for a seeded fraction of queries, the processor-based Oracle is
// built over just the relevant collections and its answer must equal
// EvalBounds' — oracle versus oracle.
package chaos

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/namespace"
	"repro/internal/xmltree"
)

// incColl is one installed collection and when it appeared.
type incColl struct {
	pathExp string
	area    namespace.Area
	items   []*xmltree.Node
	// joined marks collections installed by mid-run churn: excluded from
	// the lower bound (an in-flight query may legitimately have resolved
	// before the join), included in the upper.
	joined bool
}

// IncOracle is the incrementally-maintained reference state.
type IncOracle struct {
	ns    *namespace.Namespace
	colls []incColl
	// byState buckets collection indexes by the first segment of each area
	// cell's location coordinate ("*" for top-level cells), so a query
	// touches only its states' collections instead of scanning the world.
	byState map[string][]int
	// union counts every installed item by canonical XML — the
	// per-result membership check.
	union     map[string]int
	hasJoined bool
}

// NewIncOracle creates an empty incremental oracle.
func NewIncOracle(ns *namespace.Namespace) *IncOracle {
	return &IncOracle{ns: ns, byState: map[string][]int{}, union: map[string]int{}}
}

// stateKey is the bucket key of one cell: its location coordinate's first
// segment, or "*" when the cell spans every state.
func stateKey(c namespace.Cell) string {
	if len(c.Coords) == 0 {
		return "*"
	}
	return c.Coords[0].Truncate(1).String()
}

// Install adds one collection — an O(items) delta, never a recomputation.
// Items must be frozen (they are aliased, and EvalBounds reads them from a
// goroutine concurrent with the network pump). joined marks mid-run
// arrivals; call Install for those before the pump starts, so the oracle's
// state is immutable while it is read.
func (o *IncOracle) Install(pathExp string, area namespace.Area, items []*xmltree.Node, joined bool) error {
	for _, c := range o.colls {
		if c.pathExp == pathExp {
			return fmt.Errorf("chaos: duplicate incremental-oracle collection %q", pathExp)
		}
	}
	idx := len(o.colls)
	o.colls = append(o.colls, incColl{pathExp: pathExp, area: area, items: items, joined: joined})
	seen := map[string]bool{}
	for _, c := range area.Cells {
		k := stateKey(c)
		if !seen[k] {
			seen[k] = true
			o.byState[k] = append(o.byState[k], idx)
		}
	}
	for _, it := range items {
		o.union[itemKey(it)]++
	}
	if joined {
		o.hasJoined = true
	}
	return nil
}

// candidates returns the sorted indexes of collections whose bucket
// intersects the area's states.
func (o *IncOracle) candidates(area namespace.Area) []int {
	all := false
	keys := make([]string, 0, len(area.Cells))
	seen := map[string]bool{}
	for _, c := range area.Cells {
		k := stateKey(c)
		if k == "*" {
			all = true
			break
		}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	if all {
		out := make([]int, len(o.colls))
		for i := range out {
			out[i] = i
		}
		return out
	}
	picked := map[int]bool{}
	var out []int
	for _, k := range append(keys, "*") {
		for _, i := range o.byState[k] {
			if !picked[i] {
				picked[i] = true
				out = append(out, i)
			}
		}
	}
	sort.Ints(out)
	return out
}

// matching returns the items of every collection overlapping the area —
// whole collections, exactly like catalog binding materializes URL leaves
// (areas describe holdings; overlap admits the full collection).
func (o *IncOracle) matching(area namespace.Area, includeJoined bool) []*xmltree.Node {
	var out []*xmltree.Node
	for _, i := range o.candidates(area) {
		c := &o.colls[i]
		if c.joined && !includeJoined {
			continue
		}
		if area.Overlaps(c.area) {
			out = append(out, c.items...)
		}
	}
	return out
}

// bind replaces every URN leaf of a (mutable, cloned) tree with a Data node
// holding the matching items.
func (o *IncOracle) bind(n *algebra.Node, includeJoined bool) (*algebra.Node, error) {
	if n.Kind == algebra.KindURN {
		area, err := namespace.DecodeURN(n.URN)
		if err != nil {
			return nil, fmt.Errorf("chaos: incremental oracle: %w", err)
		}
		return algebra.Data(o.matching(area, includeJoined)...), nil
	}
	for i, c := range n.Children {
		bc, err := o.bind(c, includeJoined)
		if err != nil {
			return nil, err
		}
		n.Children[i] = bc
	}
	return n, nil
}

// eval computes one bound: clone, bind URNs, evaluate through the engine.
func (o *IncOracle) eval(plan *algebra.Plan, includeJoined bool) (map[string]int, error) {
	p := plan.Clone()
	root, err := o.bind(p.Root, includeJoined)
	if err != nil {
		return nil, err
	}
	items, err := engine.Evaluate(root)
	if err != nil {
		return nil, fmt.Errorf("chaos: incremental oracle on plan %q: %w", plan.ID, err)
	}
	return Multiset(items), nil
}

// EvalBounds computes the answer interval for a plan: every full result
// must satisfy lower ⊆ result ⊆ upper, every partial result ⊆ upper. With
// no joined collections the maps are identical (exact answer). Cost is
// O(collections overlapping the plan's areas), not O(world).
func (o *IncOracle) EvalBounds(plan *algebra.Plan) (lower, upper map[string]int, err error) {
	lower, err = o.eval(plan, false)
	if err != nil {
		return nil, nil, err
	}
	upper = lower
	if o.hasJoined {
		upper, err = o.eval(plan, true)
		if err != nil {
			return nil, nil, err
		}
	}
	return lower, upper, nil
}

// ContainsAll reports whether every distinct item of ms exists in the
// installed union — the cheap fabrication check for item-preserving plan
// shapes. Multiplicity is deliberately not compared (union-shape plans may
// legitimately bind one collection under two URN leaves).
func (o *IncOracle) ContainsAll(ms map[string]int) (bool, string) {
	for k := range ms {
		if o.union[k] == 0 {
			return false, fmt.Sprintf("item absent from every installed collection: %.120s", k)
		}
	}
	return true, ""
}

// Relevant materializes the collections overlapping any of the plan's URN
// areas, for building a reference Oracle over just the query's slice of the
// world (the sampled differential check). initial excludes mid-run joiners
// (the lower-bound world); all includes them (the upper-bound world). A
// collection outside both sets cannot contribute to the plan's answer under
// any binding, so the subset oracle equals the full-union oracle.
func (o *IncOracle) Relevant(plan *algebra.Plan) (initial, all []Collection, err error) {
	picked := map[int]bool{}
	var idxs []int
	for _, u := range plan.Root.URNs() {
		area, err := namespace.DecodeURN(u)
		if err != nil {
			return nil, nil, fmt.Errorf("chaos: incremental oracle: %w", err)
		}
		for _, i := range o.candidates(area) {
			if !picked[i] && area.Overlaps(o.colls[i].area) {
				picked[i] = true
				idxs = append(idxs, i)
			}
		}
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		c := &o.colls[i]
		coll := Collection{PathExp: c.pathExp, Area: c.area, Items: c.items}
		all = append(all, coll)
		if !c.joined {
			initial = append(initial, coll)
		}
	}
	return initial, all, nil
}
