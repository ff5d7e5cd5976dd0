package catalog

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/hierarchy"
	"repro/internal/namespace"
	"repro/internal/xmltree"
)

// testNS builds the Location × Merchandise namespace used in §4's examples.
func testNS() *namespace.Namespace {
	loc := hierarchy.New("Location")
	for _, p := range []string{
		"USA/OR/Portland", "USA/OR/Eugene", "USA/WA/Seattle", "France",
	} {
		loc.MustAdd(p)
	}
	merch := hierarchy.New("Merchandise")
	for _, p := range []string{
		"Recreation/SportingGoods/GolfClubs/Putters", "Music/CDs",
		"Furniture/Chairs",
	} {
		merch.MustAdd(p)
	}
	return namespace.MustNew(loc, merch)
}

func areaURN(ns *namespace.Namespace, s string) string {
	return namespace.EncodeURN(ns.MustParseArea(s))
}

func baseReg(ns *namespace.Namespace, addr, areaStr string) Registration {
	area := ns.MustParseArea(areaStr)
	return Registration{
		Addr: addr,
		Role: RoleBase,
		Area: area,
		Collections: []Collection{
			{Name: "items", PathExp: "/data[id=1]", Area: area},
		},
	}
}

func TestStatementParseRoundTrip(t *testing.T) {
	ns := testNS()
	cases := []string{
		"base[USA/OR/Portland, *]@R = base[USA/OR/Portland, *]@S",
		"base[USA/OR/Portland, *]@R >= base[USA/OR/Portland, *]@S{30}",
		"index[USA/OR, Recreation/SportingGoods/GolfClubs]@R = base[USA/OR, Recreation/SportingGoods/GolfClubs]@S U base[USA/OR, Recreation/SportingGoods/GolfClubs]@T U base[USA/OR, Recreation/SportingGoods/GolfClubs]@U",
		"index[USA/OR/Portland, *]@R = index[USA/OR/Portland, *]@S",
	}
	for _, src := range cases {
		st, err := ParseStatement(ns, src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		back, err := ParseStatement(ns, st.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", st.String(), err)
		}
		if back.String() != st.String() {
			t.Fatalf("round trip: %q vs %q", back.String(), st.String())
		}
	}
}

func TestStatementParseErrors(t *testing.T) {
	ns := testNS()
	bad := []string{
		"",
		"base[USA/OR, *]@R",                        // no operator
		"bogus[USA/OR, *]@R = base[USA/OR, *]@S",   // bad level
		"base USA/OR @R = base[USA/OR, *]@S",       // missing bracket
		"base[USA/OR, *]R = base[USA/OR, *]@S",     // missing @
		"base[USA/OR, *]@ = base[USA/OR, *]@S",     // empty addr
		"base[USA/OR, *]@R = base[USA/OR, *]@S{x}", // bad delay
		"base[USA/OR, *]@R{5} = base[USA/OR, *]@S", // delay on left
		"base[USA/OR]@R = base[USA/OR, *]@S",       // wrong arity area
	}
	for _, s := range bad {
		if _, err := ParseStatement(ns, s); err == nil {
			t.Errorf("ParseStatement(%q): want error", s)
		}
	}
}

func TestResolveUnknown(t *testing.T) {
	ns := testNS()
	c := New(ns, "me:1")
	b, err := c.Resolve("urn:ForSale:Nothing")
	if err != nil {
		t.Fatal(err)
	}
	if b.Known() {
		t.Fatalf("unknown urn bound: %+v", b)
	}
}

func TestAliasToURLs(t *testing.T) {
	ns := testNS()
	c := New(ns, "me:1")
	c.AddAlias("urn:ForSale:Portland-CDs", "http://10.1.2.3:9020/", "http://10.2.3.4:9020/")
	b, err := c.Resolve("urn:ForSale:Portland-CDs")
	if err != nil {
		t.Fatal(err)
	}
	if b.Expr == nil || b.Expr.Kind != algebra.KindUnion || len(b.Expr.Children) != 2 {
		t.Fatalf("binding = %+v", b)
	}
}

func TestAliasChainToAreaURN(t *testing.T) {
	ns := testNS()
	c := New(ns, "me:1")
	pdxCDs := areaURN(ns, "[USA/OR/Portland, Music/CDs]")
	c.AddAlias("urn:ForSale:Portland-CDs", pdxCDs)
	if err := c.Register(baseReg(ns, "10.1.2.3:9020", "[USA/OR/Portland, Music/CDs]")); err != nil {
		t.Fatal(err)
	}
	b, err := c.Resolve("urn:ForSale:Portland-CDs")
	if err != nil {
		t.Fatal(err)
	}
	if b.Expr == nil || b.Expr.Kind != algebra.KindURL || b.Expr.URL != "10.1.2.3:9020" {
		t.Fatalf("binding = %v", b.Expr)
	}
}

func TestAliasCycle(t *testing.T) {
	ns := testNS()
	c := New(ns, "me:1")
	c.AddAlias("urn:A", "urn:B")
	c.AddAlias("urn:B", "urn:A")
	if _, err := c.Resolve("urn:A"); err == nil {
		t.Fatal("alias cycle must error")
	}
}

func TestBindAreaUnionOfOverlappingBases(t *testing.T) {
	ns := testNS()
	c := New(ns, "me:1")
	// Seller 1: Portland CDs. Seller 2: all Oregon music. Seller 3: Seattle.
	mustReg(t, c, baseReg(ns, "s1:9020", "[USA/OR/Portland, Music/CDs]"))
	mustReg(t, c, baseReg(ns, "s2:9020", "[USA/OR, Music]"))
	mustReg(t, c, baseReg(ns, "s3:9020", "[USA/WA/Seattle, Music/CDs]"))
	b, err := c.Resolve(areaURN(ns, "[USA/OR/Portland, Music/CDs]"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Expr == nil || b.Expr.Kind != algebra.KindUnion || len(b.Expr.Children) != 2 {
		t.Fatalf("binding = %v", b.Expr)
	}
	urls := b.Expr.URLs()
	if len(urls) != 2 || urls[0] != "s1:9020" || urls[1] != "s2:9020" {
		t.Fatalf("urls = %v", urls)
	}
}

func mustReg(t *testing.T, c *Catalog, r Registration) {
	t.Helper()
	if err := c.Register(r); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterValidationAndReplace(t *testing.T) {
	ns := testNS()
	c := New(ns, "me:1")
	if err := c.Register(Registration{}); err == nil {
		t.Fatal("empty registration must error")
	}
	if err := c.Register(Registration{Addr: "x:1"}); err == nil {
		t.Fatal("registration without area must error")
	}
	r := baseReg(ns, "s1:1", "[USA/OR, *]")
	mustReg(t, c, r)
	mustReg(t, c, r) // replace
	if got := len(c.Registrations()); got != 1 {
		t.Fatalf("registrations = %d, want 1 after replace", got)
	}
}

// TestExample1Equality reproduces §4.2 Example 1: with
// base[Portland,SG]@R = base[Portland,SG]@S retained, a Portland golf-clubs
// URN binds to R | S instead of R ∪ S.
func TestExample1Equality(t *testing.T) {
	ns := testNS()
	c := New(ns, "M:1")
	mustReg(t, c, baseReg(ns, "R:9020", "[USA/OR/Portland, Recreation]"))
	mustReg(t, c, baseReg(ns, "S:9020", "[USA/OR, Recreation/SportingGoods]"))
	q := areaURN(ns, "[USA/OR/Portland, Recreation/SportingGoods/GolfClubs]")

	// Without the statement: plain union.
	b, err := c.Resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	if b.Expr.Kind != algebra.KindUnion {
		t.Fatalf("pre-statement binding = %v", b.Expr)
	}

	st, err := ParseStatement(ns,
		"base[USA/OR/Portland, Recreation/SportingGoods]@R:9020 = base[USA/OR/Portland, Recreation/SportingGoods]@S:9020")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddStatement(st); err != nil {
		t.Fatal(err)
	}
	b, err = c.Resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	if b.Expr.Kind != algebra.KindOr || len(b.Expr.Children) != 2 {
		t.Fatalf("post-statement binding = %v", b.Expr)
	}
	// Each alternative is a single server.
	for _, alt := range b.Expr.Children {
		if alt.Kind != algebra.KindURL {
			t.Fatalf("alternative = %v", alt)
		}
	}
}

// TestExample2IndexCoverage reproduces §4.2 Example 2: an index-coverage
// statement adds a route-via-index alternative.
func TestExample2IndexCoverage(t *testing.T) {
	ns := testNS()
	c := New(ns, "M:1")
	for _, s := range []string{"S:9020", "T:9020", "U:9020"} {
		mustReg(t, c, baseReg(ns, s, "[USA/OR, Recreation/SportingGoods/GolfClubs]"))
	}
	st, err := ParseStatement(ns,
		"index[USA/OR, Recreation/SportingGoods/GolfClubs]@R:9020 = "+
			"base[USA/OR, Recreation/SportingGoods/GolfClubs]@S:9020 U "+
			"base[USA/OR, Recreation/SportingGoods/GolfClubs]@T:9020 U "+
			"base[USA/OR, Recreation/SportingGoods/GolfClubs]@U:9020")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddStatement(st); err != nil {
		t.Fatal(err)
	}
	q := areaURN(ns, "[USA/OR/Portland, Recreation/SportingGoods/GolfClubs/Putters]")
	b, err := c.Resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	if b.Expr.Kind != algebra.KindOr || len(b.Expr.Children) != 2 {
		t.Fatalf("binding = %v", b.Expr)
	}
	via := b.Expr.Children[0]
	if via.Kind != algebra.KindURN {
		t.Fatalf("first alternative should route via index: %v", via)
	}
	if route, _ := via.Annotation(AnnotRoute); route != "R:9020" {
		t.Fatalf("route = %q", route)
	}
	direct := b.Expr.Children[1]
	if direct.Kind != algebra.KindUnion || len(direct.Children) != 3 {
		t.Fatalf("direct alternative = %v", direct)
	}
}

// TestExample3Superset reproduces §4.2/§4.3 Example 3 with a delay factor:
// base[Portland,*]@R >= base[Portland,*]@S{30} binds [Portland,CDs] to
// R{30} | (R ∪ S){0}.
func TestExample3Superset(t *testing.T) {
	ns := testNS()
	c := New(ns, "M:1")
	mustReg(t, c, baseReg(ns, "R:9020", "[USA/OR/Portland, *]"))
	mustReg(t, c, baseReg(ns, "S:9020", "[USA/OR/Portland, *]"))
	st, err := ParseStatement(ns,
		"base[USA/OR/Portland, *]@R:9020 >= base[USA/OR/Portland, *]@S:9020{30}")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddStatement(st); err != nil {
		t.Fatal(err)
	}
	b, err := c.Resolve(areaURN(ns, "[USA/OR/Portland, Music/CDs]"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Expr.Kind != algebra.KindOr || len(b.Expr.Children) != 2 {
		t.Fatalf("binding = %v", b.Expr)
	}
	rOnly, full := b.Expr.Children[0], b.Expr.Children[1]
	if rOnly.Kind != algebra.KindURL || rOnly.Staleness() != 30 {
		t.Fatalf("R-only alternative = %v staleness=%d", rOnly, rOnly.Staleness())
	}
	if full.Kind != algebra.KindUnion || full.Staleness() != 0 {
		t.Fatalf("full alternative = %v staleness=%d", full, full.Staleness())
	}
}

func TestRoutesOrdering(t *testing.T) {
	ns := testNS()
	c := New(ns, "me:1")
	or := ns.MustParseArea("[USA/OR, *]")
	usa := ns.MustParseArea("[USA, *]")
	mustReg(t, c, Registration{Addr: "usa-meta:1", Role: RoleMetaIndex, Area: usa})
	mustReg(t, c, Registration{Addr: "or-index:1", Role: RoleIndex, Area: or, Authoritative: true})
	mustReg(t, c, Registration{Addr: "me:1", Role: RoleIndex, Area: or}) // self must be skipped
	b, err := c.Resolve(areaURN(ns, "[USA/OR/Portland, Music/CDs]"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Expr != nil {
		t.Fatalf("no base data expected, got %v", b.Expr)
	}
	if len(b.Routes) != 2 || b.Routes[0] != "or-index:1" || b.Routes[1] != "usa-meta:1" {
		t.Fatalf("routes = %v (want authoritative+specific first, no self)", b.Routes)
	}
}

func TestCacheHitsAndInvalidation(t *testing.T) {
	ns := testNS()
	c := New(ns, "me:1")
	mustReg(t, c, baseReg(ns, "s1:1", "[USA/OR, *]"))
	q := areaURN(ns, "[USA/OR/Portland, Music/CDs]")
	if _, err := c.Resolve(q); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(q); err != nil {
		t.Fatal(err)
	}
	hits, misses := c.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d/%d", hits, misses)
	}
	// Registration invalidates.
	mustReg(t, c, baseReg(ns, "s2:1", "[USA/OR, *]"))
	b, err := c.Resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	if b.Expr.Kind != algebra.KindUnion {
		t.Fatalf("stale cache served: %v", b.Expr)
	}
	// Disabled cache: no hits accumulate.
	c.EnableCache(false)
	h0, _ := c.CacheStats()
	_, _ = c.Resolve(q)
	_, _ = c.Resolve(q)
	h1, _ := c.CacheStats()
	if h1 != h0 {
		t.Fatal("disabled cache must not hit")
	}
}

// TestResolveCacheBounded resolves more distinct URNs than the cache holds:
// the cache stays within its cap and every answer, cached or not, equals the
// uncached one.
func TestResolveCacheBounded(t *testing.T) {
	ns := testNS()
	c := New(ns, "me:1")
	const n = resolveCacheMax + 100
	urns := make([]string, n)
	for i := range urns {
		urns[i] = fmt.Sprintf("urn:Cap:%d", i)
		c.AddAlias(urns[i], fmt.Sprintf("http://s%d:1/data[id=%d]", i%7, i))
	}
	for _, urn := range urns {
		want, err := c.resolveUncached(urn, map[string]bool{})
		if err != nil {
			t.Fatal(err)
		}
		// The first Resolve fills the cache, the second answers from it.
		for i := 0; i < 2; i++ {
			got, err := c.Resolve(urn)
			if err != nil {
				t.Fatal(err)
			}
			if !sameExpr(got.Expr, want.Expr) {
				t.Fatalf("%s resolved to %v, want %v", urn, got.Expr, want.Expr)
			}
		}
		if len(c.cache) > resolveCacheMax {
			t.Fatalf("cache holds %d entries, cap %d", len(c.cache), resolveCacheMax)
		}
	}
	if hits, misses := c.CacheStats(); hits != n || misses != n {
		t.Fatalf("cache stats = %d/%d, want %d/%d", hits, misses, n, n)
	}
}

// sameExpr reports whether two bound expressions have the same canonical
// encoding.
func sameExpr(a, b *algebra.Node) bool {
	return algebra.EncodeString(algebra.NewPlan("", "", a)) == algebra.EncodeString(algebra.NewPlan("", "", b))
}

// TestResolveCacheNotStaleAfterConcurrentMutation: a binding computed before
// a concurrent mutation landed must not be cached. Each round resolves an
// alias 20 times while another goroutine gives it a second target; once both
// are done, Resolve must answer what the catalog now says.
func TestResolveCacheNotStaleAfterConcurrentMutation(t *testing.T) {
	const urn = "urn:Race:CDs"
	ns := testNS()
	for round := 0; round < 2000; round++ {
		c := New(ns, "me:1")
		c.AddAlias(urn, "http://s1:1/data")
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := c.Resolve(urn); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			c.AddAlias(urn, "http://s2:1/data")
		}()
		wg.Wait()
		got, err := c.Resolve(urn)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.resolveUncached(urn, map[string]bool{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameExpr(got.Expr, want.Expr) || !slices.Equal(got.Routes, want.Routes) {
			t.Fatalf("round %d: Resolve = %v %v after the mutation, want %v %v",
				round, got.Expr, got.Routes, want.Expr, want.Routes)
		}
	}
}

func TestCachedBindingIsIsolated(t *testing.T) {
	ns := testNS()
	c := New(ns, "me:1")
	mustReg(t, c, baseReg(ns, "s1:1", "[USA/OR, *]"))
	q := areaURN(ns, "[USA/OR, Music]")
	b1, _ := c.Resolve(q)
	b1.Expr.URL = "mutated"
	b2, _ := c.Resolve(q)
	if b2.Expr.URL == "mutated" {
		t.Fatal("cache returned shared node")
	}
}

func TestRegistrationXMLRoundTrip(t *testing.T) {
	ns := testNS()
	st, err := ParseStatement(ns, "base[USA/OR/Portland, *]@R:1 >= base[USA/OR/Portland, *]@S:1{30}")
	if err != nil {
		t.Fatal(err)
	}
	reg := Registration{
		Addr:          "10.1.2.3:9020",
		Role:          RoleBase,
		Area:          ns.MustParseArea("[USA/OR/Portland, Music/CDs]"),
		Authoritative: true,
		Collections: []Collection{
			{Name: "cds", PathExp: "/data[id=245]", Area: ns.MustParseArea("[USA/OR/Portland, Music/CDs]")},
		},
		Statements: []Statement{st},
	}
	e := MarshalRegistration(reg)
	back, err := UnmarshalRegistration(ns, e)
	if err != nil {
		t.Fatal(err)
	}
	if back.Addr != reg.Addr || back.Role != reg.Role || !back.Authoritative {
		t.Fatalf("round trip header = %+v", back)
	}
	if !back.Area.Equal(reg.Area) || len(back.Collections) != 1 || back.Collections[0].PathExp != "/data[id=245]" {
		t.Fatalf("round trip body = %+v", back)
	}
	if len(back.Statements) != 1 || back.Statements[0].String() != st.String() {
		t.Fatalf("round trip statements = %+v", back.Statements)
	}
}

func TestRegistrationXMLErrors(t *testing.T) {
	ns := testNS()
	for _, src := range []string{
		`<notreg/>`,
		`<registration role="base" area="urn:InterestArea:(USA,*)"/>`,
		`<registration addr="x" role="wizard" area="urn:InterestArea:(USA,*)"/>`,
		`<registration addr="x" role="base" area="bogus"/>`,
		`<registration addr="x" role="base" area="urn:InterestArea:(USA,*)"><collection area="bad"/></registration>`,
		`<registration addr="x" role="base" area="urn:InterestArea:(USA,*)"><statement>garbage</statement></registration>`,
		`<registration addr="x" role="base" authoritative="maybe" area="urn:InterestArea:(USA,*)"/>`,
	} {
		e, err := xmltree.ParseString(src)
		if err != nil {
			t.Fatalf("fixture %q: %v", src, err)
		}
		if _, err := UnmarshalRegistration(ns, e); err == nil {
			t.Errorf("UnmarshalRegistration(%q): want error", src)
		}
	}
}

// TestRegisterSupersedes: a registration naming a predecessor replaces it in
// the same catalog mutation — the replica-promotion guarantee that the dead
// source and its promoted copy are never both bound (no double counting, no
// window where neither is registered).
func TestRegisterSupersedes(t *testing.T) {
	ns := testNS()
	c := New(ns, "M:1")
	mustReg(t, c, baseReg(ns, "src:1", "[USA/OR/Portland, Music/CDs]"))
	mustReg(t, c, baseReg(ns, "other:1", "[USA/WA/Seattle, Music/CDs]"))
	gen := c.Generation()

	rep := baseReg(ns, "rep:1", "[USA/OR/Portland, Music/CDs]")
	rep.Supersedes = "src:1"
	mustReg(t, c, rep)

	var addrs []string
	for _, r := range c.Registrations() {
		addrs = append(addrs, r.Addr)
	}
	if len(addrs) != 2 {
		t.Fatalf("registrations after supersede = %v", addrs)
	}
	for _, a := range addrs {
		if a == "src:1" {
			t.Fatal("superseded registration survived")
		}
	}
	if c.Generation() == gen {
		t.Fatal("supersede must invalidate cached resolutions")
	}

	// Superseding an absent or self address is a plain register.
	again := baseReg(ns, "rep:1", "[USA/OR/Portland, Music/CDs]")
	again.Supersedes = "rep:1"
	mustReg(t, c, again)
	if got := len(c.Registrations()); got != 2 {
		t.Fatalf("self-supersede changed the count: %d", got)
	}
}

// TestSupersedesWireRoundTrip: the supersedes attribute survives the
// registration's XML wire form (promotion crosses the network).
func TestSupersedesWireRoundTrip(t *testing.T) {
	ns := testNS()
	r := baseReg(ns, "rep:1", "[USA/OR/Portland, Music/CDs]")
	r.Supersedes = "src:1"
	back, err := UnmarshalRegistration(ns, MarshalRegistration(r))
	if err != nil {
		t.Fatal(err)
	}
	if back.Supersedes != "src:1" {
		t.Fatalf("supersedes = %q after round trip", back.Supersedes)
	}
	plain := baseReg(ns, "s:1", "[USA/OR/Portland, Music/CDs]")
	back, err = UnmarshalRegistration(ns, MarshalRegistration(plain))
	if err != nil {
		t.Fatal(err)
	}
	if back.Supersedes != "" {
		t.Fatalf("phantom supersedes %q on a plain registration", back.Supersedes)
	}
}
