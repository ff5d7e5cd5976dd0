package algebra_test

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/hierarchy"
	"repro/internal/mqp"
	"repro/internal/namespace"
	"repro/internal/xmltree"
)

// TestWarmHopNeitherParsesNorRenders counts the predicate work of a whole
// server hop — decode, unmarshal, StepCtx, streamed re-encode — on the
// point_hot plan (one select over an aliased URN the server binds, fetches and
// reduces itself; eight predicates resubmitted forever). Once the parse table
// has seen a predicate, a hop reads its prepared form: the plan-cache key (the
// operator tree rendered to its wire bytes), evaluation and the encoder parse
// nothing and render nothing, with the plan cache on (hits) or off (live).
func TestWarmHopNeitherParsesNorRenders(t *testing.T) {
	loc := hierarchy.New("Location")
	loc.MustAdd("USA/OR/Portland")
	merch := hierarchy.New("Merchandise")
	merch.MustAdd("Music/CDs")
	ns := namespace.MustNew(loc, merch)

	var items []*xmltree.Node
	for i := 0; i < 16; i++ {
		items = append(items, xmltree.MustParse(fmt.Sprintf("<sale><cd>Album %02d</cd><price>%d</price></sale>", i, 3+2*i)))
	}
	fetch := func(_ *mqp.StepContext, _ string, _ string) ([]*xmltree.Node, int, error) { return items, 0, nil }

	var wires []string
	for i, pred := range []string{"price < 7", "price < 9", "price < 11", "price < 13",
		"price > 25", "price > 27", "price > 29", "price > 31"} {
		plan := algebra.NewPlan(fmt.Sprintf("hot%d", i), "client:9020",
			algebra.Display(algebra.Select(algebra.MustParsePredicate(pred), algebra.URN("urn:Hot:CDs"))))
		wires = append(wires, algebra.EncodeString(plan))
	}

	for _, cacheSize := range []int{0, 16} {
		cat := catalog.New(ns, "S:9020")
		cat.AddAlias("urn:Hot:CDs", "http://S:9020/data")
		proc, err := mqp.New(mqp.Config{Self: "S:9020", Catalog: cat, FetchLocal: fetch,
			PushSelect: true, Key: []byte("kS"), PlanCacheSize: cacheSize})
		if err != nil {
			t.Fatal(err)
		}
		hop := func(wire string) {
			plan, err := algebra.DecodeString(wire)
			if err != nil {
				t.Fatal(err)
			}
			out, err := proc.StepCtx(nil, plan)
			if err != nil || !out.Done {
				t.Fatalf("step: %+v, %v", out, err)
			}
			enc := xmltree.GetFrameEncoder()
			algebra.EncodeFrame(plan, enc)
			if enc.Len() == 0 {
				t.Fatal("empty frame")
			}
			enc.Release()
		}
		for _, w := range wires {
			hop(w)
		}
		parses, renders := algebra.PredicateWork()
		for round := 0; round < 3; round++ {
			for _, w := range wires {
				hop(w)
			}
		}
		if p, r := algebra.PredicateWork(); p != parses || r != renders {
			t.Errorf("plan cache %d: 24 warm hops ran the parser %d times and the renderer %d times",
				cacheSize, p-parses, r-renders)
		}
		if s := proc.CacheStats(); cacheSize > 0 && s.Hits != 24 {
			t.Errorf("plan cache stats %+v: want 24 hits", s)
		}
	}
}
