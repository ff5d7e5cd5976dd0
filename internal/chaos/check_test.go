package chaos

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/xmltree"
)

// forgeable is a clean executed scenario with the two results the forgeries
// start from: full is an item-preserving full result holding a lower-bound
// item, count a full count result whose lower bound is positive (both are
// indexes into out.results).
type forgeable struct {
	w           *scenario
	out         outcome
	full, count int
}

// findForgeable runs seeds of base until one has both results to forge.
func findForgeable(t *testing.T, base Config) forgeable {
	t.Helper()
	for seed := int64(1); seed <= 40; seed++ {
		cfg := base
		cfg.Seed = seed
		w, err := generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := w.execute()
		if err != nil {
			t.Fatal(err)
		}
		f := forgeable{w: w, out: out, full: -1, count: -1}
		for i, res := range out.results {
			pc := f.caseOf(res.Plan.ID)
			if res.Partial || pc == nil {
				continue
			}
			lo, _ := countOf(pc.lower)
			switch {
			case pc.shape == shapeCount && lo > 0:
				f.count = i
			case pc.shape != shapeCount && pc.shape != shapeProject && len(pc.lower) > 0:
				f.full = i
			}
		}
		if f.full >= 0 && f.count >= 0 {
			t.Logf("forging from seed %d", seed)
			return f
		}
	}
	t.Fatalf("no seed of %+v has both a full item-preserving result and a positive count", base)
	return forgeable{}
}

func (f forgeable) caseOf(id string) *planCase {
	for _, pc := range f.w.cases {
		if pc.id == id {
			return pc
		}
	}
	return nil
}

// check runs the invariant checker on out with a fresh report.
func (f forgeable) check(out outcome) []string {
	r := f.w.rep
	rep := &Report{Level: r.Level, Plans: r.Plans, Left: r.Left, PromotionsRefused: r.PromotionsRefused}
	checkInvariants(rep, out, f.w.cases, f.w.contains)
	return rep.Violations
}

// answering returns res carrying docs as its answer instead.
func answering(res peer.Result, partial bool, docs ...*xmltree.Node) peer.Result {
	p := res.Plan.Clone()
	p.Root = algebra.Display(algebra.Data(docs...))
	res.Plan, res.Partial = p, partial
	return res
}

func without(recs []simnet.TraceRec, drop func(simnet.TraceRec) bool) []simnet.TraceRec {
	return slices.DeleteFunc(slices.Clone(recs), drop)
}

// TestCheckerCatchesForgedOutcomes: the checker passes a clean outcome and
// raises the expected violation for each single forgery of it, in a small
// world and in a 200-peer churn world.
func TestCheckerCatchesForgedOutcomes(t *testing.T) {
	for _, base := range []Config{{}, {Peers: 200, Churn: true}} {
		t.Run(fmt.Sprintf("peers=%d", base.Peers), func(t *testing.T) {
			f := findForgeable(t, base)
			if v := append(f.w.rep.Violations, f.check(f.out)...); len(v) > 0 {
				t.Fatalf("clean outcome: %v", v)
			}
			full, count := f.out.results[f.full], f.out.results[f.count]
			fullPC, countPC := f.caseOf(full.Plan.ID), f.caseOf(count.Plan.ID)
			items, _ := full.Plan.Results()
			forged := xmltree.MustParse(`<item><name>forged</name><price>1</price></item>`)
			var kept []*xmltree.Node // full's items minus every copy of one lower-bound item
			for k := range fullPC.lower {
				for _, it := range items {
					if it.String() != k {
						kept = append(kept, it)
					}
				}
				break
			}
			lo, _ := countOf(countPC.lower)
			hi, _ := countOf(countPC.upper)
			trail, err := peer.QueryTrail(full)
			if err != nil || len(trail.Visits) == 0 {
				t.Fatalf("full result has no trail: %v", err)
			}
			signer := trail.Visits[0].Server

			for _, tc := range []struct {
				name, want string // want "" means the forgery must pass
				forge      func(o *outcome)
			}{
				{"extra item", "result exceeds oracle upper bound", func(o *outcome) {
					o.results[f.full] = answering(full, false, append(slices.Clone(items), forged)...)
				}},
				{"dropped item", "result misses oracle lower bound", func(o *outcome) {
					o.results[f.full] = answering(full, false, kept...)
				}},
				{"partial with a foreign item", "partial result exceeds oracle upper bound", func(o *outcome) {
					o.results[f.full] = answering(full, true, forged)
				}},
				{"partial count above upper", "partial count", func(o *outcome) {
					o.results[f.count] = answering(count, true, xmltree.ElemText("count", fmt.Sprint(hi+1)))
				}},
				{"partial count below oracle", "", func(o *outcome) {
					o.results[f.count] = answering(count, true, xmltree.ElemText("count", fmt.Sprint(lo-1)))
				}},
				{"trail server never received", "which never received the plan", func(o *outcome) {
					o.trace.Delivered = without(o.trace.Delivered, func(r simnet.TraceRec) bool {
						return r.Key == fullPC.id && r.To == signer
					})
				}},
				{"phantom plan", "phantom result", func(o *outcome) {
					ph := answering(full, false, items...)
					ph.Plan.ID = "never-submitted"
					o.results = append(o.results, ph)
				}},
				{"silently lost", "silently lost", func(o *outcome) {
					o.results = slices.DeleteFunc(o.results, func(r peer.Result) bool { return r.Plan.ID == fullPC.id })
					o.stuck = slices.DeleteFunc(o.stuck, func(s string) bool { return strings.Contains(s, fmt.Sprintf("%q", fullPC.id)) })
					keyed := func(r simnet.TraceRec) bool { return r.Key == fullPC.id }
					o.trace.Dropped = without(o.trace.Dropped, keyed)
					o.trace.Lost = without(o.trace.Lost, keyed)
				}},
			} {
				out := f.out
				out.results = slices.Clone(out.results)
				out.stuck = slices.Clone(out.stuck)
				tc.forge(&out)
				got := f.check(out)
				if tc.want == "" {
					if len(got) > 0 {
						t.Errorf("%s: want no violation, got %v", tc.name, got)
					}
					continue
				}
				if !slices.ContainsFunc(got, func(v string) bool { return strings.Contains(v, tc.want) }) {
					t.Errorf("%s: want a %q violation, got %v", tc.name, tc.want, got)
				}
			}
		})
	}
}

// TestKeyringKnowsOnlyWorldPeers: the keyring trails verify against holds each
// peer's key (its address) and nothing for any other address, so a visit
// signed by a server outside the world cannot verify.
func TestKeyringKnowsOnlyWorldPeers(t *testing.T) {
	w, err := generate(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.execute()
	if err != nil {
		t.Fatal(err)
	}
	for addr := range w.Peers {
		if got := string(out.keyring(addr)); got != addr {
			t.Errorf("keyring(%q) = %q, want the address", addr, got)
		}
	}
	if k := out.keyring("stranger:9020"); k != nil {
		t.Errorf("keyring holds %q for an address that is no peer", k)
	}
}
