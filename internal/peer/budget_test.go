package peer

import (
	goruntime "runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/simnet"
	"repro/internal/xmltree"
)

// TestSkewedJoinEndsAsBudgetPartial: a join of two inline lists of 1000
// items that all share one key would emit a million tuples (160 MB). The
// serving peer's step refuses it before building any, and the plan comes
// home as an explicit partial with reason "budget" and no items, within one
// second and 16 MB of allocation, wire codec included.
func TestSkewedJoinEndsAsBudgetPartial(t *testing.T) {
	const k = 1000
	net := simnet.New()
	mustPeer(t, Config{Addr: "srv:9020", Net: net, NS: testNS()})
	client := mustPeer(t, Config{Addr: "client:9020", Net: net, NS: testNS()})
	side := func(name string) *algebra.Node {
		docs := make([]*xmltree.Node, k)
		for i := range docs {
			docs[i] = xmltree.Elem(name, xmltree.ElemText("k", "x"), xmltree.ElemText("v", strconv.Itoa(i)))
		}
		return algebra.Data(docs...)
	}
	plan := algebra.NewPlan("skew", "client:9020",
		algebra.Display(algebra.JoinNamed("k", "k", "l", "r", side("a"), side("b"))))

	goruntime.GC()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	start := time.Now()
	if err := client.Submit("srv:9020", plan); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	goruntime.ReadMemStats(&after)

	rs := client.Results()
	if len(rs) != 1 || !rs[0].Partial || rs[0].Plan.PartialReason() != "budget" {
		t.Fatalf("results = %+v, want one budget partial", rs)
	}
	if got, err := rs[0].Plan.Results(); err != nil || len(got) != 0 {
		t.Fatalf("budget partial carries %d items (%v), want none", len(got), err)
	}
	if took > time.Second {
		t.Errorf("the refused step took %v, want under 1s", took)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Errorf("the refused step allocated %d MB, want under 16 MB", alloc>>20)
	}
	t.Logf("refused in %v, %d KB allocated", took, (after.TotalAlloc-before.TotalAlloc)>>10)
}
