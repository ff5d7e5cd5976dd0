package mqp

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/route"
)

// Ordering and transfer policies (§5.2): "MQPs will need to incorporate
// ordering and transfer policies, such as 'do not bind preferences until
// playlist is bound' or 'only let this MQP pass through servers on this
// list.'" Both travel as annotations on the plan root so every server on
// the itinerary can honor them. The transfer policy is owned by the routing
// layer (internal/route, which filters forwarding candidates with it); the
// ordering policy is interpreted here, at binding time.
const (
	// annotBindAfter holds ordering constraints "later<earlier" (the URN
	// named left may bind only once the URN named right no longer appears
	// in the plan), semicolon-separated.
	annotBindAfter = "bind-after"
	// annotOriginURN marks a URL leaf with the URN it was bound from, so
	// ordering constraints treat a resource as "bound" only once its data
	// has actually been materialized, not merely name-resolved.
	annotOriginURN = "origin-urn"
)

// BindAfter adds the ordering constraint: later may bind only after earlier
// has been fully bound (no longer appears as a URN leaf in the plan).
func BindAfter(p *algebra.Plan, later, earlier string) {
	entry := later + "<" + earlier
	if v, ok := p.Root.Annotation(annotBindAfter); ok && v != "" {
		entry = v + ";" + entry
	}
	p.Root.Annotate(annotBindAfter, entry)
}

// bindDeferred reports whether the URN must not bind yet under the plan's
// ordering constraints: some "later<earlier" entry names it as later while
// earlier is still outstanding — either an unresolved URN leaf, or a URL
// leaf whose data has not been materialized yet (tracked by origin-urn
// annotations placed at bind time).
func bindDeferred(p *algebra.Plan, urn string) bool {
	v, ok := p.Root.Annotation(annotBindAfter)
	if !ok || v == "" {
		return false
	}
	var present map[string]bool
	for _, entry := range strings.Split(v, ";") {
		parts := strings.SplitN(entry, "<", 2)
		if len(parts) != 2 || parts[0] != urn {
			continue
		}
		if present == nil {
			present = map[string]bool{}
			p.Root.Walk(func(m *algebra.Node) bool {
				switch m.Kind {
				case algebra.KindURN:
					present[m.URN] = true
				case algebra.KindURL:
					if origin, ok := m.Annotation(annotOriginURN); ok {
						present[origin] = true
					}
				}
				return true
			})
		}
		if present[parts[1]] {
			return true
		}
	}
	return false
}

// markOrigin stamps every URL leaf of a freshly bound expression with the
// URN it came from.
func markOrigin(expr *algebra.Node, urn string) {
	expr.Walk(func(m *algebra.Node) bool {
		if m.Kind == algebra.KindURL {
			m.Annotate(annotOriginURN, urn)
		}
		return true
	})
}

// checkTransferPolicy verifies this server may process the plan.
func (p *Processor) checkTransferPolicy(plan *algebra.Plan) error {
	allowed := route.AllowedServers(plan)
	if allowed == nil {
		return nil
	}
	for _, a := range allowed {
		if a == p.cfg.Self {
			return nil
		}
	}
	return fmt.Errorf("mqp: plan %q forbids processing at %s (transfer policy)", plan.ID, p.cfg.Self)
}
