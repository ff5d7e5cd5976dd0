package chaos

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/mqp"
	"repro/internal/namespace"
	"repro/internal/xmltree"
)

// oracleAddr is the address the centralized oracle registers everything
// under; every URL leaf a binding produces resolves locally.
const oracleAddr = "oracle:1"

// Collection is one base collection the oracle holds: the union of all
// collections in a scenario, each under its unique path expression.
type Collection struct {
	PathExp string
	Area    namespace.Area
	Items   []*xmltree.Node
}

// Oracle is the differential reference: a single peer that holds every
// collection in the scenario and evaluates plans entirely locally, through
// the same catalog/processor/engine semantics the distributed run uses but
// with none of its machinery — no network, no serialization, no forwarding,
// no faults. Whatever the chaotic distributed evaluation answers must equal
// (as a multiset) what the oracle answers.
//
// The oracle aliases the scenario's frozen collection items rather than
// copying them, deliberately: running it concurrently with the network pump
// exercises the frozen-subtree ownership rule (shared immutable reads from
// two goroutines) under -race.
type Oracle struct {
	proc *mqp.Processor
}

// NewOracle builds the oracle over the union of all collections.
func NewOracle(ns *namespace.Namespace, colls []Collection) (*Oracle, error) {
	store := make(map[string][]*xmltree.Node, len(colls))
	reg := catalog.Registration{
		Addr: oracleAddr,
		Role: catalog.RoleBase,
		// The oracle is authoritative for everything: an area matching no
		// collection is provably empty, exactly like an authoritative
		// meta-index server with total knowledge.
		Area:          ns.Everything(),
		Authoritative: true,
	}
	for _, c := range colls {
		if _, dup := store[c.PathExp]; dup {
			return nil, fmt.Errorf("chaos: duplicate oracle collection %q", c.PathExp)
		}
		store[c.PathExp] = c.Items
		reg.Collections = append(reg.Collections, catalog.Collection{
			Name: c.PathExp, PathExp: c.PathExp, Area: c.Area,
		})
	}
	cat := catalog.New(ns, oracleAddr)
	if err := cat.Register(reg); err != nil {
		return nil, err
	}
	proc, err := mqp.New(mqp.Config{
		Self:    oracleAddr,
		Catalog: cat,
		FetchLocal: func(_ *mqp.StepContext, _ string, pathExp string) ([]*xmltree.Node, int, error) {
			items, ok := store[pathExp]
			if !ok {
				return nil, 0, fmt.Errorf("chaos: oracle has no collection %q", pathExp)
			}
			return items, 0, nil
		},
		Policy:     mqp.DefaultPolicy{},
		PushSelect: true,
		Authority:  ns.Everything(),
	})
	if err != nil {
		return nil, err
	}
	return &Oracle{proc: proc}, nil
}

// Evaluate computes the reference answer for a plan. The plan is cloned
// first — Step mutates and freezes in place — so the caller's copy is
// untouched and reusable. A plan the processor ends as a partial has no
// reference answer: its error names the reason, and a "budget" partial's
// wraps engine.ErrBudget.
func (o *Oracle) Evaluate(plan *algebra.Plan) ([]*xmltree.Node, error) {
	p := plan.Clone()
	p.Target = oracleAddr
	for steps := 0; steps < 16; steps++ {
		out, err := o.proc.Step(p)
		if err != nil {
			return nil, fmt.Errorf("chaos: oracle step on plan %q: %w", p.ID, err)
		}
		switch {
		case out.Done:
			return p.Results()
		case out.Partial && out.PartialReason == "budget":
			return nil, fmt.Errorf("chaos: oracle ended plan %q as a budget partial: %w", p.ID, engine.ErrBudget)
		case out.Partial:
			return nil, fmt.Errorf("chaos: oracle ended plan %q as a partial, reason %q", p.ID, out.PartialReason)
		}
	}
	return nil, fmt.Errorf("chaos: oracle did not converge on plan %q", p.ID)
}

// Multiset summarizes a result collection as canonical-XML counts; two
// answers are equal when their multisets are.
func Multiset(items []*xmltree.Node) map[string]int {
	m := make(map[string]int, len(items))
	for _, it := range items {
		m[itemKey(it)]++
	}
	return m
}

// itemKey is an item's canonical XML: a frozen item's memo, read in place
// as blobstore.Fingerprint reads it, and String() only for an item without
// one. The two are byte-identical.
func itemKey(it *xmltree.Node) string {
	if s, ok := it.FrozenSerialization(); ok {
		return s
	}
	return it.String()
}

// MultisetSubset reports whether sub ⊆ super (as multisets), and when it is
// not, one human-readable difference. Partial results are checked with it:
// they may miss items the full answer has, never carry extras.
func MultisetSubset(sub, super map[string]int) (bool, string) {
	for k, n := range sub {
		if super[k] < n {
			return false, fmt.Sprintf("item ×%d exceeds oracle's ×%d: %.120s", n, super[k], k)
		}
	}
	return true, ""
}

// MultisetEqual reports whether two multisets agree, and when they do not,
// one human-readable difference.
func MultisetEqual(got, want map[string]int) (bool, string) {
	for k, n := range want {
		if got[k] != n {
			return false, fmt.Sprintf("item ×%d (got ×%d): %.120s", n, got[k], k)
		}
	}
	for k, n := range got {
		if want[k] != n {
			return false, fmt.Sprintf("unexpected item ×%d: %.120s", n, k)
		}
	}
	return true, ""
}
