package chaos

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// sweepSize returns the scenario budget: the acceptance bar is 500 seeded
// scenarios, trimmed to 200 under -short for CI.
func sweepSize() int {
	if testing.Short() {
		return 200
	}
	return 500
}

// TestScenarioSweep is the harness's main claim: hundreds of seeded random
// scenarios, every one holding all five invariants. Scenarios run across
// parallel shards, so `-race` additionally stresses concurrent frozen reads
// between the shards' pumps and oracles.
func TestScenarioSweep(t *testing.T) {
	n := sweepSize()
	const shards = 8
	for s := 0; s < shards; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			for seed := int64(s + 1); seed <= int64(n); seed += shards {
				rep, err := Run(Config{Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: harness error: %v", seed, err)
				}
				if rep.Failed() {
					t.Errorf("seed %d violated invariants (replay: make chaos SEED=%d):", seed, seed)
					for _, v := range rep.Violations {
						t.Errorf("  %s", v)
					}
					return
				}
			}
		})
	}
}

// TestScenarioDeterministic: the whole scenario — world, faults, outcome —
// is a pure function of the seed, which is what makes `make chaos SEED=n`
// a faithful replay of any sweep failure.
func TestScenarioDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 42, 977} {
		a, err := Run(Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if a.Summary() != b.Summary() {
			t.Fatalf("seed %d not deterministic:\n%s\n%s", seed, a.Summary(), b.Summary())
		}
	}
}

// TestFaultFreeLosesNothing: with no injected faults nothing is dropped or
// lost in flight, and the plan accounting closes without a loss bucket.
func TestFaultFreeLosesNothing(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rep, err := Run(Config{Seed: seed, Level: LevelNone})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			t.Fatalf("seed %d: %v", seed, rep.Violations)
		}
		if rep.DroppedMsgs != 0 || rep.LostMsgs != 0 || rep.LostToFaults != 0 {
			t.Fatalf("seed %d: fault-free run recorded losses: %s", seed, rep.Summary())
		}
		if rep.Completed == 0 {
			t.Fatalf("seed %d: fault-free run completed nothing: %s", seed, rep.Summary())
		}
	}
}

// TestHeavyFaultsStillChecked: under heavy faults plans may be lost, but
// whatever completes is still oracle-equal, and the sweep must exercise the
// loss-attribution path somewhere.
func TestHeavyFaultsStillChecked(t *testing.T) {
	sawLoss := false
	for seed := int64(1); seed <= 40; seed++ {
		rep, err := Run(Config{Seed: seed, Level: LevelHeavy})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			t.Fatalf("seed %d: %v", seed, rep.Violations)
		}
		if rep.LostToFaults > 0 {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Fatal("40 heavy-fault scenarios never lost a plan; fault injection looks dead")
	}
}

func TestMultisetEqual(t *testing.T) {
	a := []*xmltree.Node{xmltree.MustParse(`<a>1</a>`), xmltree.MustParse(`<a>1</a>`), xmltree.MustParse(`<b/>`)}
	b := []*xmltree.Node{xmltree.MustParse(`<b/>`), xmltree.MustParse(`<a>1</a>`), xmltree.MustParse(`<a>1</a>`)}
	if ok, diff := MultisetEqual(Multiset(a), Multiset(b)); !ok {
		t.Fatalf("order must not matter: %s", diff)
	}
	if ok, _ := MultisetEqual(Multiset(a[:2]), Multiset(b)); ok {
		t.Fatal("missing item not detected")
	}
	if ok, _ := MultisetEqual(Multiset(a), Multiset(a[:1])); ok {
		t.Fatal("extra item not detected")
	}

	// A frozen item is keyed by its memo, read in place; the keys must be
	// the String() bytes for every shape of item a result can hold.
	const item = `<item><title>A B</title><price>8</price></item>`
	sealed, err := xmltree.DecodeString(`<data>` + item + item + `</data>`)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := xmltree.DecodeString(item)
	if err != nil {
		t.Fatal(err)
	}
	frozen := xmltree.MustParse(`<r>` + item + `</r>`).Freeze()
	shapes := []*xmltree.Node{
		sealed.Kids()[0], sealed.Kids()[1], eager,
		xmltree.SealedPair("cd", "l", eager, "r", sealed.Kids()[0]),
		frozen, frozen.Kids()[0], xmltree.MustParse(item),
	}
	byString := map[string]int{}
	for i, it := range shapes {
		if _, memo := it.FrozenSerialization(); memo != (i < 5) {
			t.Fatalf("shape %d: memo %v; the case needs five items with a memo and two without", i, memo)
		}
		byString[it.String()]++
	}
	if ok, diff := MultisetEqual(Multiset(shapes), byString); !ok {
		t.Fatalf("memo-keyed multiset differs from the String()-keyed one: %s", diff)
	}
}

func TestMultisetSubset(t *testing.T) {
	full := []*xmltree.Node{xmltree.MustParse(`<a>1</a>`), xmltree.MustParse(`<a>1</a>`), xmltree.MustParse(`<b/>`)}
	if ok, diff := MultisetSubset(Multiset(full[:1]), Multiset(full)); !ok {
		t.Fatalf("strict sub-multiset rejected: %s", diff)
	}
	if ok, diff := MultisetSubset(Multiset(nil), Multiset(full)); !ok {
		t.Fatalf("empty multiset rejected: %s", diff)
	}
	if ok, diff := MultisetSubset(Multiset(full), Multiset(full)); !ok {
		t.Fatalf("equal multiset rejected: %s", diff)
	}
	// The rejecting direction: an item the oracle lacks, and an item whose
	// multiplicity exceeds the oracle's.
	if ok, _ := MultisetSubset(Multiset(full), Multiset(full[:1])); ok {
		t.Fatal("excess items not detected")
	}
	extra := append(append([]*xmltree.Node(nil), full...), xmltree.MustParse(`<c/>`))
	if ok, _ := MultisetSubset(Multiset(extra), Multiset(full)); ok {
		t.Fatal("foreign item not detected")
	}
}

// BenchmarkScenario measures chaos throughput (scenarios/op) and the plan
// outcome rates — completed/partial/stuck/lost per plan — so `make
// bench-chaos` records liveness alongside speed in BENCH_chaos.json.
func BenchmarkScenario(b *testing.B) {
	var plans, completed, partial, stuck, lost int
	for i := 0; i < b.N; i++ {
		rep, err := Run(Config{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed() {
			b.Fatalf("seed %d: %v", i+1, rep.Violations)
		}
		plans += rep.Plans
		completed += rep.Completed
		partial += rep.Partial
		stuck += rep.Stuck
		lost += rep.LostToFaults
	}
	if plans > 0 {
		b.ReportMetric(float64(completed)/float64(plans), "completed/plan")
		b.ReportMetric(float64(partial)/float64(plans), "partial/plan")
		b.ReportMetric(float64(stuck)/float64(plans), "stuck/plan")
		b.ReportMetric(float64(lost)/float64(plans), "lost/plan")
	}
}

// TestOracleEndsOnBudgetPartial: a join of two inline lists of 1000 items
// sharing one key is refused by the oracle's first step as a "budget"
// partial. Evaluate reports that at once, wrapping engine.ErrBudget, instead
// of stepping the partial plan again until it gives up.
func TestOracleEndsOnBudgetPartial(t *testing.T) {
	o, err := NewOracle(workload.GarageSaleNamespace(), nil)
	if err != nil {
		t.Fatal(err)
	}
	side := func(name string) *algebra.Node {
		docs := make([]*xmltree.Node, 1000)
		for i := range docs {
			docs[i] = xmltree.Elem(name, xmltree.ElemText("k", "x"), xmltree.ElemText("v", strconv.Itoa(i)))
		}
		return algebra.Data(docs...)
	}
	plan := algebra.NewPlan("skew", "client:1",
		algebra.Display(algebra.JoinNamed("k", "k", "l", "r", side("a"), side("b"))))
	if items, err := o.Evaluate(plan); !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("Evaluate = %d items, %v; want an error wrapping engine.ErrBudget", len(items), err)
	}
}
