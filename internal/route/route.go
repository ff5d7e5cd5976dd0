// Package route is the routing layer of the mutant-query-plan system: it
// decides where a plan that is not yet fully evaluated travels next.
//
// The paper's plans are self-routing — each hop decides the next server from
// what the plan itself carries. This package centralizes that decision,
// which used to be smeared across the MQP processor (candidate collection,
// transfer-policy filtering) and the peer transport (fallback iteration),
// and adds the piece that makes self-routing live: visited-server memory
// carried on the plan (algebra.Visited). A candidate that has already seen
// the plan is only worth revisiting when the plan has mutated since — new
// bindings, data, annotations — and even productive revisits are bounded by
// a budget, so every plan terminates: each hop consumes either an unvisited
// server or budget, and when neither remains the router says so explicitly
// (Exhausted) instead of bouncing the plan into a forwarding-depth guard.
//
// A plan that can no longer travel productively is not lost: Partial derives
// an explicit partial result — the best-effort evaluation of what the plan
// already holds, guaranteed to be a sub-multiset of the complete answer —
// for the transport to deliver to the plan's target.
package route

import (
	"strings"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/xmltree"
)

// DefaultRevisitBudget is the number of times a plan may return to a server
// it has already visited. Every server enforces it: the plan carries visit
// counts, not its own bound, so a sender cannot raise it. Pure ping-pong
// is filtered by the fingerprint rule regardless; the budget bounds cycles
// that keep mutating the plan (and legitimate multi-pass itineraries, e.g. a
// remainder URN chaining through a meta-index once per covered sub-area).
const DefaultRevisitBudget = 6

// AnnotAllowServers is the §5.2 transfer-policy annotation on the plan root:
// the only servers the plan may visit, comma-separated. Empty or absent
// means unrestricted.
const AnnotAllowServers = "allow-servers"

// RestrictServers constrains the plan to travel only through the listed
// servers (plus its target). Forwarding to, or processing at, any other
// server fails.
func RestrictServers(p *algebra.Plan, servers ...string) {
	p.Root.Annotate(AnnotAllowServers, strings.Join(servers, ","))
}

// AllowedServers returns the plan's transfer policy, or nil when
// unrestricted.
func AllowedServers(p *algebra.Plan) []string {
	v, ok := p.Root.Annotation(AnnotAllowServers)
	if !ok || v == "" {
		return nil
	}
	return strings.Split(v, ",")
}

// Reason explains a routing decision.
type Reason int

const (
	// Forward: productive candidates remain; travel along Decision.Hops.
	Forward Reason = iota
	// NoRoute: the plan names no server this router could forward to at
	// all — no route annotations, no catalog routes, no foreign URL owners
	// (or the transfer policy forbids every one). The plan is stuck.
	NoRoute
	// Exhausted: forwarding candidates exist, but every one has already
	// seen the plan in its current state (or its revisit budget is spent).
	// Forwarding is guaranteed wasted work; the transport should deliver an
	// explicit partial result instead.
	Exhausted
)

func (r Reason) String() string {
	switch r {
	case Forward:
		return "forward"
	case NoRoute:
		return "no-route"
	case Exhausted:
		return "exhausted"
	default:
		return "reason(?)"
	}
}

// Decision is the outcome of Select.
type Decision struct {
	// Hops are the surviving forwarding candidates in preference order;
	// transports fall back along the tail when a destination is
	// unreachable. Empty unless Reason is Forward.
	Hops []string
	// Reason classifies the decision.
	Reason Reason
	// Filtered lists candidates removed by the visited-server memory, for
	// diagnostics.
	Filtered []string
	// Fingerprint is the plan-root fingerprint Select computed; reuse it
	// (Decision.MarkVisited) instead of re-hashing the tree.
	Fingerprint uint64
}

// MarkVisited records one visit by self in the plan's visited memory,
// reusing the fingerprint this decision already computed — valid as long as
// the plan has not mutated since Select, so the recorded fingerprint
// captures the state the rest of the network sees next.
func (d Decision) MarkVisited(p *algebra.Plan, self string) {
	p.VisitedMemory().Mark(self, d.Fingerprint)
}

// Select decides where the plan travels next. Candidates are collected from
// the plan in preference order — learned shortcuts first (when the caller
// passes any, see Shortcuts.Candidates), then explicit route annotations on
// URN leaves, then the catalog routes the caller's binding passes produced,
// then the owners of unresolved URL leaves — deduplicated, restricted to the
// plan's transfer policy, and filtered against the visited-server memory: a
// server that has already seen the plan is retried only while the plan has
// mutated since its last visit and its revisit budget remains.
func Select(p *algebra.Plan, self string, catalogRoutes []string, learned ...string) Decision {
	fp := algebra.Fingerprint(p.Root)
	raw := Candidates(p.Root, self, catalogRoutes, learned...)
	allowed := filterByTransferPolicy(p, raw)
	if len(allowed) == 0 {
		return Decision{Reason: NoRoute, Fingerprint: fp}
	}
	hops, filtered := filterByVisited(p, allowed, fp)
	if len(hops) == 0 {
		return Decision{Reason: Exhausted, Filtered: filtered, Fingerprint: fp}
	}
	return Decision{Hops: hops, Reason: Forward, Filtered: filtered, Fingerprint: fp}
}

// Candidates collects forwarding candidates in preference order: learned
// shortcuts first (already best-ranked by the caller's Shortcuts table),
// then explicit route annotations on URN leaves, then catalog route
// candidates, then servers owning unresolved URL leaves. Duplicates and
// self are dropped. A learned shortcut outranks the catalog because it is
// evidence — a trail proved this server held the data — where the catalog
// tiers are only direction; the visited memory still bounds it if the
// evidence has gone stale.
func Candidates(root *algebra.Node, self string, catalogRoutes []string, learned ...string) []string {
	var annotated, urls []string
	root.Walk(func(m *algebra.Node) bool {
		switch m.Kind {
		case algebra.KindURN:
			if r, ok := m.Annotation(catalog.AnnotRoute); ok && r != self {
				annotated = append(annotated, r)
			}
		case algebra.KindURL:
			if a := AddrOf(m.URL); a != self {
				urls = append(urls, a)
			}
		}
		return true
	})
	seen := map[string]bool{self: true, "": true}
	var out []string
	for _, cands := range [][]string{learned, annotated, catalogRoutes, urls} {
		for _, c := range cands {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// AddrOf extracts the peer address from a URL leaf value: it accepts both
// bare "host:port" strings and "http://host:port/..." forms.
func AddrOf(url string) string {
	s := strings.TrimPrefix(url, "http://")
	s = strings.TrimPrefix(s, "https://")
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	return s
}

// filterByTransferPolicy drops candidates outside the plan's §5.2 transfer
// policy. The plan's target is always allowed.
func filterByTransferPolicy(p *algebra.Plan, hops []string) []string {
	allowed := AllowedServers(p)
	if allowed == nil {
		return hops
	}
	ok := make(map[string]bool, len(allowed)+1)
	for _, a := range allowed {
		ok[a] = true
	}
	ok[p.Target] = true
	var out []string
	for _, h := range hops {
		if ok[h] {
			out = append(out, h)
		}
	}
	return out
}

// filterByVisited applies the visited-server memory: an unvisited candidate
// always survives; a visited one survives only while the plan's fingerprint
// has changed since that server's last visit (the revisit can teach it
// something) and the candidate's revisit budget remains.
func filterByVisited(p *algebra.Plan, hops []string, fp uint64) (keep, filtered []string) {
	v := p.Visited
	if v == nil || v.Len() == 0 {
		return hops, nil
	}
	for _, h := range hops {
		rec, seen := v.Lookup(h)
		switch {
		case !seen:
			keep = append(keep, h)
		case rec.Fingerprint == fp:
			// The plan has not mutated since h last processed it: h would
			// do exactly what it did before. Pure ping-pong.
			filtered = append(filtered, h)
		case rec.Count > DefaultRevisitBudget:
			filtered = append(filtered, h)
		default:
			keep = append(keep, h)
		}
	}
	return keep, filtered
}

// Partial derives the explicit partial result for a plan that can no longer
// travel productively: the best-effort evaluation of the data the plan
// already holds, with unresolved work treated as empty. The result plan is
// constant, flagged with algebra.AnnotPartial, and carries the original
// query, visited memory and extra sections (provenance) of the source plan,
// so a client can see both what it got and why the rest is missing.
//
// Soundness: only monotone operators (select, project, join, union) are
// evaluated over partially-available inputs — for those, a sub-multiset of
// the inputs yields a sub-multiset of the answer. A non-monotone subtree
// (difference, count, top-n, or an unresolved or-choice) contributes its
// exact value when it is fully evaluable here and nothing otherwise, so a
// partial result is always a sub-multiset of the complete answer.
func Partial(p *algebra.Plan) *algebra.Plan {
	body := p.Root
	if body.Kind == algebra.KindDisplay && len(body.Children) == 1 {
		body = body.Children[0]
	}
	var items []*xmltree.Node
	if pruned := pruneToAvailable(body); pruned != nil {
		if got, err := engine.Evaluate(pruned); err == nil {
			items = got
		}
	}
	for _, it := range items {
		it.Freeze()
	}
	data := algebra.Data(items...)
	data.SetCard(len(items))
	pp := &algebra.Plan{ID: p.ID, Target: p.Target, Root: algebra.Display(data),
		Original: p.Original, Visited: p.Visited}
	pp.MarkPartialResult()
	if p.Extra != nil {
		pp.Extra = make(map[string]*xmltree.Node, len(p.Extra))
		for k, e := range p.Extra {
			pp.Extra[k] = e.Share()
		}
	}
	return pp
}

// pruneToAvailable rewrites the operator tree to one evaluable from the data
// in hand: fully-evaluable subtrees stay exact, unresolved leaves under
// monotone operators become empty, and non-monotone operators with
// unresolved descendants are dropped entirely (nil at the top level means
// nothing is salvageable).
func pruneToAvailable(n *algebra.Node) *algebra.Node {
	if engine.LocallyEvaluable(n) {
		return n
	}
	switch n.Kind {
	case algebra.KindURL, algebra.KindURN:
		return algebra.Data()
	case algebra.KindSelect, algebra.KindProject, algebra.KindJoin, algebra.KindUnion:
		cp := *n
		cp.Children = make([]*algebra.Node, len(n.Children))
		for i, c := range n.Children {
			pc := pruneToAvailable(c)
			if pc == nil {
				pc = algebra.Data()
			}
			cp.Children[i] = pc
		}
		return &cp
	default:
		// Difference, count, top-n and unresolved or-choices are not
		// monotone: evaluating them over partial inputs could overstate the
		// answer. They contribute nothing unless fully evaluable (handled
		// above).
		return nil
	}
}
