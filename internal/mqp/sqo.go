package mqp

import (
	"repro/internal/algebra"
	"repro/internal/stats"
	"repro/internal/xmltree"
)

// Semantic query optimization using the attribute indices of §3.2: when a
// selection sits over a union of URL leaves that carry histogram
// annotations (published by base servers at registration time and copied
// onto bindings by the catalog), branches whose histogram proves the
// predicate selects nothing are pruned before the plan travels. Pruning is
// sound with respect to the published metadata: a branch is removed only
// when its histogram's value range provably excludes every match.
//
// This realizes the paper's SQO connection (§6: "intelligent routing of
// query plans based on intensional statements about server coverage" —
// here extended from area coverage to attribute ranges).

// PruneByStats removes provably-empty branches beneath every
// select-over-union in the tree. Returns the number of branches removed.
func PruneByStats(root *algebra.Node) int {
	pruned := 0
	var visit func(n *algebra.Node)
	visit = func(n *algebra.Node) {
		for _, c := range n.Children {
			visit(c)
		}
		if n.Kind != algebra.KindSelect || len(n.Children) != 1 {
			return
		}
		u := n.Children[0]
		if u.Kind != algebra.KindUnion {
			return
		}
		var kept []*algebra.Node
		for _, branch := range u.Children {
			if provablyEmpty(n.Pred, branch) {
				pruned++
				continue
			}
			kept = append(kept, branch)
		}
		if len(kept) == len(u.Children) {
			return
		}
		if len(kept) == 0 {
			// Nothing can match: the whole selection is the empty
			// collection.
			empty := algebra.Data()
			empty.SetCard(0)
			n.Children[0] = empty
			return
		}
		if len(kept) == 1 {
			n.Children[0] = kept[0]
			return
		}
		u.Children = kept
	}
	visit(root)
	return pruned
}

// provablyEmpty reports whether the branch (a URL leaf with histogram
// annotations) provably yields no item satisfying pred. Only conjunctive
// comparison structure is analyzed; anything else is conservatively kept.
func provablyEmpty(pred *algebra.Prepared, branch *algebra.Node) bool {
	if branch.Kind != algebra.KindURL {
		return false
	}
	enc, ok := branch.Annotation(algebra.AnnotHistogram)
	if !ok {
		return false
	}
	h, err := stats.DecodeHistogram(enc)
	if err != nil {
		return false
	}
	return predExcludesRange(pred.AST(), h)
}

// predExcludesRange reports whether pred provably rejects every value the
// histogram's field can take. For And it suffices that either side
// excludes; Or requires both; other predicate forms are unknown (false).
func predExcludesRange(pred algebra.Predicate, h *stats.Histogram) bool {
	switch p := pred.(type) {
	case algebra.Cmp:
		if p.Path != h.Path {
			return false
		}
		v, ok := xmltree.Number(p.Value)
		if !ok {
			return false
		}
		switch p.Op {
		case algebra.OpLt:
			return v <= h.Lo
		case algebra.OpLe:
			return v < h.Lo
		case algebra.OpGt:
			return v >= h.Hi
		case algebra.OpGe:
			return v > h.Hi
		case algebra.OpEq:
			return v < h.Lo || v > h.Hi
		default:
			return false
		}
	case algebra.And:
		return predExcludesRange(p.L, h) || predExcludesRange(p.R, h)
	case algebra.OrPred:
		return predExcludesRange(p.L, h) && predExcludesRange(p.R, h)
	default:
		return false
	}
}
