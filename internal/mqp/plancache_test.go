package mqp

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
)

// cacheWorld builds a single self-sufficient processor: the catalog aliases
// one URN to the processor's own store, so a selection plan binds, fetches
// and reduces to a constant in one (cacheable) step.
func cacheWorld(t *testing.T, cacheSize int) *Processor {
	t.Helper()
	cat := catalog.New(testNS(), "S:9020")
	cat.AddAlias("urn:Cache:CDs", "http://S:9020/data")
	st := store{"/data": items(
		`<sale><cd>Blue Train</cd><price>8</price></sale>`,
		`<sale><cd>Kind of Blue</cd><price>15</price></sale>`,
		`<sale><cd>Giant Steps</cd><price>9</price></sale>`,
	)}
	return mustProc(t, Config{Self: "S:9020", Catalog: cat, FetchLocal: st.fetch,
		PushSelect: true, Key: []byte("kS"), PlanCacheSize: cacheSize})
}

func cachePlan(id, pred string) *algebra.Plan {
	sel := algebra.Select(algebra.MustParsePredicate(pred),
		algebra.URN("urn:Cache:CDs"))
	return algebra.NewPlan(id, "client:9020", algebra.Display(sel))
}

// stepDone runs one step and asserts the plan finished locally, returning
// the result titles so callers can compare hit and miss outcomes.
func stepDone(t *testing.T, p *Processor, plan *algebra.Plan) []string {
	t.Helper()
	out, err := p.Step(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Done {
		t.Fatalf("outcome = %+v, want Done", out)
	}
	docs, err := plan.Results()
	if err != nil {
		t.Fatal(err)
	}
	titles := make([]string, len(docs))
	for i, d := range docs {
		titles[i] = d.Value("cd")
	}
	return titles
}

func TestPlanCacheHitMissAccounting(t *testing.T) {
	p := cacheWorld(t, 8)

	first := stepDone(t, p, cachePlan("q1", "price < 10"))
	s := p.CacheStats()
	if s.Hits != 0 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after miss: stats = %+v", s)
	}

	second := stepDone(t, p, cachePlan("q2", "price < 10"))
	s = p.CacheStats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("after hit: stats = %+v", s)
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("hit results %v differ from live results %v", second, first)
	}
	if len(first) != 2 {
		t.Fatalf("results = %v, want 2 CDs under $10", first)
	}
	if rate := s.HitRate(); rate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", rate)
	}
}

func TestPlanCacheEvictionAtCapacity(t *testing.T) {
	p := cacheWorld(t, 2)

	stepDone(t, p, cachePlan("e1", "price < 9"))
	stepDone(t, p, cachePlan("e2", "price < 10"))
	s := p.CacheStats()
	if s.Entries != 2 || s.Evictions != 0 {
		t.Fatalf("at capacity: stats = %+v", s)
	}

	// Touch e2's shape so e1's entry is the LRU victim.
	stepDone(t, p, cachePlan("e2b", "price < 10"))
	stepDone(t, p, cachePlan("e3", "price < 16"))
	s = p.CacheStats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("after third shape: stats = %+v", s)
	}

	// The retained shape still hits; the evicted one re-misses (and its
	// reinsert evicts again — the cache holds the two hottest shapes).
	hits := s.Hits
	stepDone(t, p, cachePlan("e2c", "price < 10"))
	if got := p.CacheStats().Hits; got != hits+1 {
		t.Fatalf("retained shape: hits = %d, want %d", got, hits+1)
	}
	misses := p.CacheStats().Misses
	stepDone(t, p, cachePlan("e1b", "price < 9"))
	if got := p.CacheStats().Misses; got != misses+1 {
		t.Fatalf("evicted shape: misses = %d, want %d", got, misses+1)
	}
}

// TestPlanCacheCollisionSafety plants an entry under the wrong fingerprint
// (as a real 64-bit digest collision would) and checks the structural
// equality guard turns the poisoned lookup into a miss, never a wrong
// answer.
func TestPlanCacheCollisionSafety(t *testing.T) {
	p := cacheWorld(t, 8)
	stepDone(t, p, cachePlan("c1", "price < 10"))

	// Re-file the prepared entry for "price < 10" under the fingerprint of a
	// structurally different plan.
	victim := cachePlan("c2", "price > 10")
	victimFP := algebra.Fingerprint(victim.Root)
	p.cache.mu.Lock()
	if len(p.cache.entries) != 1 {
		p.cache.mu.Unlock()
		t.Fatalf("entries = %d, want 1", len(p.cache.entries))
	}
	for fp, e := range p.cache.entries {
		delete(p.cache.entries, fp)
		p.cache.entries[victimFP] = e
	}
	p.cache.mu.Unlock()

	misses := p.CacheStats().Misses
	got := stepDone(t, p, victim)
	if len(got) != 1 || got[0] != "Kind of Blue" {
		t.Fatalf("collision victim results = %v, want [Kind of Blue]", got)
	}
	if s := p.CacheStats(); s.Misses != misses+1 {
		t.Fatalf("collision did not miss: stats = %+v", s)
	}
}

func TestPlanCacheGenerationInvalidation(t *testing.T) {
	p := cacheWorld(t, 8)
	stepDone(t, p, cachePlan("g1", "price < 10"))
	stepDone(t, p, cachePlan("g2", "price < 10"))
	if s := p.CacheStats(); s.Hits != 1 {
		t.Fatalf("warmup: stats = %+v", s)
	}

	// Any catalog mutation bumps the generation; the prepared entry must be
	// dropped, not served stale.
	p.cfg.Catalog.AddAlias("urn:Cache:Other", "http://elsewhere:9020/x")
	misses := p.CacheStats().Misses
	stepDone(t, p, cachePlan("g3", "price < 10"))
	s := p.CacheStats()
	if s.Misses != misses+1 {
		t.Fatalf("stale entry served: stats = %+v", s)
	}
	// The re-prepared entry serves the new generation.
	hits := s.Hits
	stepDone(t, p, cachePlan("g4", "price < 10"))
	if got := p.CacheStats().Hits; got != hits+1 {
		t.Fatalf("re-prepared entry did not hit: stats = %+v", p.CacheStats())
	}
}

// TestPlanCacheConcurrentHits hammers one prepared entry from many
// goroutines. The entry's outRoot is shared read-only into every hitting
// plan, so under -race this doubles as the frozen-entry immutability check.
func TestPlanCacheConcurrentHits(t *testing.T) {
	p := cacheWorld(t, 8)
	want := fmt.Sprint(stepDone(t, p, cachePlan("w0", "price < 10")))

	const goroutines, rounds = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				plan := cachePlan(fmt.Sprintf("w%d-%d", g, i), "price < 10")
				out, err := p.Step(plan)
				if err != nil {
					errs <- err
					return
				}
				if !out.Done {
					errs <- fmt.Errorf("goroutine %d: outcome %+v", g, out)
					return
				}
				docs, err := plan.Results()
				if err != nil {
					errs <- err
					return
				}
				titles := make([]string, len(docs))
				for j, d := range docs {
					titles[j] = d.Value("cd")
				}
				if fmt.Sprint(titles) != want {
					errs <- fmt.Errorf("goroutine %d: results %v, want %s", g, titles, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := p.CacheStats()
	if s.Hits < goroutines*rounds {
		t.Fatalf("stats = %+v, want >= %d hits", s, goroutines*rounds)
	}
}

// TestPlanCacheSkipsIdleAndPayloadSteps: a step that bound, fetched, reduced
// and rewrote nothing (the pure forward) leaves no entry — there is no work
// to replay — and a plan carrying payload documents, which can never have
// been inserted, is not even looked up.
func TestPlanCacheSkipsIdleAndPayloadSteps(t *testing.T) {
	p := mustProc(t, Config{Self: "F:9020", Catalog: catalog.New(testNS(), "F:9020"),
		PushSelect: true, Key: []byte("kF"), PlanCacheSize: 8})
	forward := func(id string, in *algebra.Node) {
		t.Helper()
		plan := algebra.NewPlan(id, "client:9020", algebra.Display(
			algebra.Select(algebra.MustParsePredicate("price < 10"), in)))
		out, err := p.Step(plan)
		if err != nil {
			t.Fatal(err)
		}
		if out.NextHop != "S:9020" || out.Bound+out.Fetched+out.Reduced+out.Rewrites != 0 {
			t.Fatalf("outcome = %+v, want a pure forward to S:9020", out)
		}
	}
	forward("f1", algebra.URL("http://S:9020/", "/data"))
	forward("f2", algebra.URL("http://S:9020/", "/data"))
	if s := p.CacheStats(); s.Entries != 0 || s.Hits != 0 || s.Misses != 2 {
		t.Fatalf("after two pure forwards: stats = %+v, want no entry and two misses", s)
	}
	forward("d1", algebra.JoinNamed("cd", "cd", "sale", "listing",
		algebra.Data(items(`<sale><cd>Blue Train</cd></sale>`)...), algebra.URL("http://S:9020/", "/data")))
	if s := p.CacheStats(); s.Entries != 0 || s.Misses != 2 {
		t.Fatalf("after a payload-bearing plan: stats = %+v, want no lookup", s)
	}
}
