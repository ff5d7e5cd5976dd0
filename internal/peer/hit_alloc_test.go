package peer

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/mqp"
	"repro/internal/simnet"
	"repro/internal/xmltree"
)

// cachedHitAllocBudget bounds what a server spends on a plan whose operator
// bytes its plan cache has prepared: the warm frame decoded (an
// identical-frame cache hit), the envelope read by arrive, and StepCtx's hit —
// key from the clean-span memo, lookup, the prepared root adopted, provenance
// parsed, replayed, signed and written back. Measured: 51 allocs, nearly all
// of them provenance; building the operator tree as well makes 54. The count
// repeats exactly, so the budget is the measurement.
const cachedHitAllocBudget = 51

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestCachedHitAllocBudget: a hit from a frame never builds the incoming
// operator tree.
func TestCachedHitAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("under the race detector sync.Pool drops items at random, so allocation counts vary")
	}
	net := simnet.New()
	s := mustPeer(t, Config{Addr: "S:9020", Net: net, NS: testNS(), PushSelect: true,
		Key: []byte("kS"), PlanCacheSize: 8})
	s.AddCollection(Collection{Name: "cds", PathExp: "/data", Items: items(
		`<sale><cd>Blue Train</cd><price>8</price></sale>`,
		`<sale><cd>Kind of Blue</cd><price>15</price></sale>`,
		`<sale><cd>Giant Steps</cd><price>9</price></sale>`,
	)})
	s.Catalog().AddAlias("urn:Hot:CDs", "http://S:9020/data")
	wire := algebra.EncodeString(algebra.NewPlan("hot", "client:9020", algebra.Display(
		algebra.Select(algebra.MustParsePredicate("price < 10"), algebra.URN("urn:Hot:CDs")))))

	hop := func() {
		doc, err := xmltree.DecodeString(wire)
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := s.arrive(&simnet.Message{To: s.Addr(), Kind: KindMQP, Body: doc})
		if err != nil || plan == nil {
			t.Fatalf("arrive: %v", err)
		}
		sc := mqp.StepContext{}
		if out, err := s.proc.StepCtx(&sc, plan); err != nil || !out.Done {
			t.Fatalf("step: %+v, %v", out, err)
		}
	}
	hop()
	hits := s.CacheStats().Hits
	allocs := testing.AllocsPerRun(20, hop)
	if got := s.CacheStats().Hits - hits; got != 21 {
		t.Fatalf("%d of 21 warm steps hit the plan cache", got)
	}
	if allocs > cachedHitAllocBudget {
		t.Fatalf("a cached hit from a frame allocates %.0f/op; budget is %d — is the operator tree being built?",
			allocs, cachedHitAllocBudget)
	}
}
