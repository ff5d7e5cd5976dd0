package mqp

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/route"
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

// fromWire is plan as a peer receives it: its frame decoded, the envelope
// read, the operator tree left unbuilt.
func fromWire(t *testing.T, plan *algebra.Plan) *algebra.Plan {
	t.Helper()
	got, err := algebra.UnmarshalEnvelope(algebra.Marshal(plan))
	if err != nil {
		t.Fatal(err)
	}
	if got.Root != nil {
		t.Fatal("UnmarshalEnvelope built the operator tree")
	}
	return got
}

// TestPlanCacheKeyIsExact: the cache is keyed by the operator tree's exact
// bytes, so plans that differ only in a predicate constant, in one annotation
// value or in the order of union branches each get an entry of their own and
// their own answer — the one a processor without a cache gives. Each plan is
// stepped twice: built in memory (a miss, rendered to its wire bytes), then
// decoded from its frame (a hit on the clean-span memo of the same bytes).
func TestPlanCacheKeyIsExact(t *testing.T) {
	sel := func(pred string) *algebra.Node {
		return algebra.Select(algebra.MustParsePredicate(pred), algebra.URN("urn:Cache:CDs"))
	}
	annotated := func(v string) *algebra.Node {
		n := sel("price < 10")
		n.Annotate("note", v)
		return n
	}
	variants := []*algebra.Node{
		sel("price < 9"),
		sel("price < 10"),
		annotated("a"),
		annotated("b"),
		algebra.Union(sel("price < 9"), sel("price > 9")),
		algebra.Union(sel("price > 9"), sel("price < 9")),
	}
	p, live := cacheWorld(t, 16), cacheWorld(t, 0)
	var wants []string
	for i, root := range variants {
		plan := algebra.NewPlan(fmt.Sprintf("x%d", i), "client:9020", algebra.Display(root))
		want := fmt.Sprint(stepDone(t, live, plan.Clone()))
		wants = append(wants, want)
		wire := fromWire(t, plan)
		if got := fmt.Sprint(stepDone(t, p, plan)); got != want {
			t.Fatalf("variant %d, miss: %s, want %s", i, got, want)
		}
		if got := fmt.Sprint(stepDone(t, p, wire)); got != want {
			t.Fatalf("variant %d, hit: %s, want %s", i, got, want)
		}
		s := p.CacheStats()
		if s.Entries != i+1 || s.Hits != int64(i+1) || s.Misses != int64(i+1) {
			t.Fatalf("after variant %d: stats = %+v, want %d entries, hits and misses", i, s, i+1)
		}
	}
	if wants[0] == wants[1] || wants[4] == wants[5] {
		t.Fatalf("answers %q do not tell the predicate and union-order variants apart", wants)
	}
}

// TestPlanCacheOneEpoch: the cache holds entries of one generation. After a
// generation bump the first lookup empties it; a lookup by a reader that saw
// an older generation clears nothing; and an insert prepared under an older
// generation is dropped.
func TestPlanCacheOneEpoch(t *testing.T) {
	p := cacheWorld(t, 8)
	stepDone(t, p, cachePlan("o1", "price < 10"))
	stepDone(t, p, cachePlan("o2", "price < 16"))
	if s := p.CacheStats(); s.Entries != 2 {
		t.Fatalf("warmup: stats = %+v", s)
	}
	var buf []byte
	key, ok := cachePlan("k", "price < 10").PreparedKey(&buf)
	if !ok {
		t.Fatal("a data-free plan has no key")
	}
	old := p.generation()
	p.cfg.Catalog.AddAlias("urn:Cache:Other", "http://elsewhere:9020/x")
	if p.generation() <= old {
		t.Fatal("catalog mutation did not move the generation")
	}
	if p.cache.lookup(key, p.generation()) != nil {
		t.Fatal("an old-epoch entry was served")
	}
	if s := p.CacheStats(); s.Entries != 0 {
		t.Fatalf("first lookup of the new epoch left %d old entries", s.Entries)
	}
	p.cache.insert(key, old, &cacheEntry{})
	if s := p.CacheStats(); s.Entries != 0 {
		t.Fatalf("an insert prepared under the old generation was kept: stats = %+v", s)
	}
	stepDone(t, p, cachePlan("o3", "price < 10"))
	if p.cache.lookup(key, old) != nil {
		t.Fatal("a reader that saw the old generation was served")
	}
	if s := p.CacheStats(); s.Entries != 1 {
		t.Fatalf("a reader that saw the old generation cleared the cache: stats = %+v", s)
	}
	hits := p.CacheStats().Hits
	stepDone(t, p, cachePlan("o4", "price < 10"))
	if s := p.CacheStats(); s.Entries != 1 || s.Hits != hits+1 {
		t.Fatalf("the new epoch does not serve: stats = %+v", s)
	}
}

// TestPlanCacheInvalidPlanNeverInserted: a plan that fails validation, or the
// transfer policy here, is refused on its first arrival and on its second,
// and never becomes an entry — a hit skips both checks, so none may exist.
func TestPlanCacheInvalidPlanNeverInserted(t *testing.T) {
	p := cacheWorld(t, 8)
	forbidden := func(id string) *algebra.Plan {
		plan := cachePlan(id, "price < 10")
		route.RestrictServers(plan, "elsewhere:9020")
		return plan
	}
	badName := func(id string) *algebra.Plan {
		return algebra.NewPlan(id, "client:9020", algebra.Display(
			algebra.Project("not a name", []string{"cd"}, algebra.URN("urn:Cache:CDs"))))
	}
	for _, c := range []struct {
		name string
		plan func(id string) *algebra.Plan
	}{{"transfer policy", forbidden}, {"invalid projection", badName}} {
		for i, plan := range []*algebra.Plan{c.plan("i1"), c.plan("i2"), fromWire(t, c.plan("i3"))} {
			if _, err := p.Step(plan); err == nil {
				t.Fatalf("%s: arrival %d accepted", c.name, i+1)
			}
		}
	}
	if s := p.CacheStats(); s.Entries != 0 || s.Hits != 0 {
		t.Fatalf("invalid plans reached the cache: stats = %+v", s)
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
// A second round runs against catalog mutations that keep moving the
// generation: every step still gives the right answer, and the cache never
// holds more than the one entry of the epoch it is in.
func TestPlanCacheConcurrentHits(t *testing.T) {
	p := cacheWorld(t, 8)
	want := fmt.Sprint(stepDone(t, p, cachePlan("w0", "price < 10")))

	const goroutines, rounds = 8, 50
	hammer := func(tag string) {
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		wg.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			go func(g int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					plan := cachePlan(fmt.Sprintf("%s%d-%d", tag, g, i), "price < 10")
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
	}
	hammer("w")
	s := p.CacheStats()
	if s.Hits < goroutines*rounds {
		t.Fatalf("stats = %+v, want >= %d hits", s, goroutines*rounds)
	}

	bumped := make(chan struct{})
	go func() {
		defer close(bumped)
		for i := 0; i < rounds; i++ {
			p.cfg.Catalog.AddAlias(fmt.Sprintf("urn:Cache:Bump%d", i), "http://elsewhere:9020/x")
			runtime.Gosched()
		}
	}()
	hammer("b")
	<-bumped
	after := p.CacheStats()
	if steps := after.Hits + after.Misses - s.Hits - s.Misses; steps != goroutines*rounds {
		t.Fatalf("stats = %+v: %d lookups in the second round, want %d", after, steps, goroutines*rounds)
	}
	if after.Entries > 1 {
		t.Fatalf("stats = %+v: one plan, yet more than one entry", after)
	}
	stepDone(t, p, cachePlan("w1", "price < 10"))
	hits := p.CacheStats().Hits
	if got := fmt.Sprint(stepDone(t, p, cachePlan("w2", "price < 10"))); got != want || p.CacheStats().Hits != hits+1 {
		t.Fatalf("after the bumps: %s, stats %+v", got, p.CacheStats())
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
