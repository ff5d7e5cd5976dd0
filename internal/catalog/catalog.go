package catalog

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/namespace"
)

// Role is a peer role in the distributed catalog architecture (§3.2).
type Role int

// Peer roles. A peer may hold several; registrations record one role each.
const (
	RoleBase Role = iota
	RoleIndex
	RoleMetaIndex
	RoleCategory
)

func (r Role) String() string {
	switch r {
	case RoleBase:
		return "base"
	case RoleIndex:
		return "index"
	case RoleMetaIndex:
		return "meta-index"
	case RoleCategory:
		return "category"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Collection is a named collection a base server exports: the index entry of
// §3.2 is "a URL (host and port of the base server) and an XPath expression
// (the base server's identifier for the collection)". Annotations carry the
// attribute indices §3.2 mentions ("indices on data attributes not used for
// categorization, e.g., price"): histograms, cardinalities and distinct
// counts keyed by the algebra annotation names; bindings copy them onto the
// produced URL leaves so later servers can prune and cost sub-plans.
type Collection struct {
	Name        string
	PathExp     string
	Area        namespace.Area
	Annotations map[string]string
}

// Registration is what a server pushes to index/meta-index servers that
// cover it (§3.3): its address, role, interest area, exported collections
// (base servers only), intensional statements it wants retained, and whether
// it claims to be authoritative for its area.
type Registration struct {
	Addr          string
	Role          Role
	Area          namespace.Area
	Collections   []Collection
	Statements    []Statement
	Authoritative bool
	// Supersedes names a peer address whose registrations this one replaces.
	// Replica promotion uses it: when a base server crashes for good, a
	// promoted replica re-registers carrying Supersedes=<source addr>, so the
	// receiving catalog forgets the dead copy in the same mutation that
	// installs the live one — bindings never name both copies of the data.
	Supersedes string
}

// AnnotRoute marks a URN leaf with the server that should resolve it next;
// the MQP router forwards the plan there.
const AnnotRoute = "route"

// Binding is the outcome of resolving a URN against a local catalog.
// Exactly one of the cases holds:
//
//   - Expr != nil: the URN can be replaced by this expression (URL leaves,
//     unions, Or alternatives; possibly URN leaves annotated with routes).
//   - len(Routes) > 0: nothing bindable locally, but these servers may know
//     more; the plan should be forwarded to one of them.
//   - both zero: the catalog knows nothing relevant.
type Binding struct {
	Expr   *algebra.Node
	Routes []string
}

// Known reports whether the binding carries any information.
func (b Binding) Known() bool { return b.Expr != nil || len(b.Routes) > 0 }

// Catalog is one peer's local catalog. Safe for concurrent use.
type Catalog struct {
	ns   *namespace.Namespace
	self string

	mu sync.RWMutex
	// aliases maps opaque URNs (urn:ForSale:Portland-CDs) to replacement
	// URN or URL strings (urls are detected by "http" prefix).
	aliases map[string][]string
	// regs are the registrations this peer has accepted or learned.
	regs []Registration
	// stmts are retained intensional statements (§4.2).
	stmts []Statement
	// cache maps URN strings to previously computed bindings (§3.4: peers
	// maintain caches of index and meta-index servers for interest areas).
	cache        map[string]Binding
	cacheEnabled bool
	hits, misses int64

	// gen counts catalog mutations. Consumers that cache anything derived
	// from catalog state (the mqp prepared-plan cache above all) key their
	// entries on the value read before deriving; a mismatch later means the
	// catalog changed underneath and the derivation must be redone.
	gen atomic.Uint64
}

// resolveCacheMax caps the resolve cache between catalog mutations: any
// neighbor can send plans naming endless distinct URNs, so a Resolve that
// would insert past the cap empties the cache first.
const resolveCacheMax = 4096

// New creates an empty catalog for the peer at self over namespace ns.
func New(ns *namespace.Namespace, self string) *Catalog {
	return &Catalog{
		ns:           ns,
		self:         self,
		aliases:      map[string][]string{},
		cache:        map[string]Binding{},
		cacheEnabled: true,
	}
}

// EnableCache turns the resolution cache on or off (the E9 ablation).
func (c *Catalog) EnableCache(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cacheEnabled = on
	if !on {
		c.cache = map[string]Binding{}
	}
}

// CacheStats returns (hits, misses) counters.
func (c *Catalog) CacheStats() (int64, int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hits, c.misses
}

// AddAlias maps an opaque URN to one or more URNs/URLs. Later entries
// append.
func (c *Catalog) AddAlias(urn string, targets ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aliases[urn] = append(c.aliases[urn], targets...)
	c.invalidateLocked()
}

// Register accepts (or updates) a registration; a registration from the
// same address with the same role replaces the previous one. Statements
// carried by the registration are retained (§4.2: "whenever a server
// registers an interest area with a meta-index server, it can also provide
// intensional statements that the meta-index server can retain").
func (c *Catalog) Register(reg Registration) error {
	if reg.Addr == "" {
		return fmt.Errorf("catalog: registration without address")
	}
	if reg.Area.Empty() {
		return fmt.Errorf("catalog: registration from %s without interest area", reg.Addr)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if reg.Supersedes != "" && reg.Supersedes != reg.Addr {
		c.dropLocked(reg.Supersedes)
	}
	replaced := false
	for i := range c.regs {
		if c.regs[i].Addr == reg.Addr && c.regs[i].Role == reg.Role {
			c.regs[i] = reg
			replaced = true
			break
		}
	}
	if !replaced {
		c.regs = append(c.regs, reg)
	}
	for _, s := range reg.Statements {
		c.addStatementLocked(s)
	}
	c.invalidateLocked()
	return nil
}

// Deregister removes every registration from addr — the graceful-leave
// counterpart of crash supersession: a peer that leaves cleanly announces
// it, so its dead registrations stop lingering until a replica happens to
// supersede them. Returns the number of registrations removed; the catalog
// generation advances only when something was actually removed.
func (c *Catalog) Deregister(addr string) int {
	if addr == "" {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := c.dropLocked(addr)
	if removed > 0 {
		c.invalidateLocked()
	}
	return removed
}

// dropLocked removes every registration from addr, zeroing the freed tail
// so it pins nothing, and returns how many went. The caller holds c.mu and
// advances the generation.
func (c *Catalog) dropLocked(addr string) int {
	kept := c.regs[:0]
	for _, r := range c.regs {
		if r.Addr != addr {
			kept = append(kept, r)
		}
	}
	removed := len(c.regs) - len(kept)
	clear(c.regs[len(kept):])
	c.regs = kept
	return removed
}

// maxAbsorbedCells bounds an absorbed registration, which every trail naming
// a new area widens. No workload comes near it (15 cells at most).
const maxAbsorbedCells = 1024

// AbsorbLearned folds a confirmed learned shortcut — server answered the
// resource area named by areaURN — into the catalog as a real,
// non-authoritative index registration: the §5.1 meta-index update that
// makes learning survive the shortcut table (and, pushed upstream, the peer)
// that did it. Areas naming categories this namespace's hierarchies do not
// know are generalized to their deepest known ancestors first (§3.5:
// precision may be lost, recall is not). Absorbing an area the catalog
// already covers for that server is a no-op, so repeated confirmation does
// not churn the catalog generation. A widening past maxAbsorbedCells is
// refused: the edge stays a shortcut only.
//
// The returned generation is the one this call's own widening produced, read
// under the same lock, or zero when the call changed nothing.
func (c *Catalog) AbsorbLearned(server, areaURN string) (uint64, error) {
	if server == "" || server == c.self {
		return 0, fmt.Errorf("catalog: cannot absorb shortcut to %q", server)
	}
	area, err := namespace.DecodeURN(areaURN)
	if err != nil {
		return 0, fmt.Errorf("catalog: absorb %s: %w", server, err)
	}
	if err := c.ns.Validate(area); err != nil {
		area = c.ns.Generalize(area)
	}
	if area.Empty() {
		return 0, fmt.Errorf("catalog: learned area %q generalizes to nothing this namespace knows", areaURN)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i := slices.IndexFunc(c.regs, func(r Registration) bool { return r.Addr == server && r.Role == RoleIndex })
	if i >= 0 {
		if c.regs[i].Area.Covers(area) {
			return 0, nil
		}
		area = namespace.NewArea(append(append([]namespace.Cell(nil), c.regs[i].Area.Cells...), area.Cells...)...)
	}
	if len(area.Cells) > maxAbsorbedCells {
		return 0, fmt.Errorf("catalog: absorb %s: %d cells exceed the cap of %d", server, len(area.Cells), maxAbsorbedCells)
	}
	if i >= 0 {
		c.regs[i].Area = area
	} else {
		c.regs = append(c.regs, Registration{Addr: server, Role: RoleIndex, Area: area})
	}
	c.invalidateLocked()
	return c.gen.Load(), nil
}

// AddStatement retains an intensional statement.
func (c *Catalog) AddStatement(s Statement) error {
	if err := s.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addStatementLocked(s)
	c.invalidateLocked()
	return nil
}

func (c *Catalog) addStatementLocked(s Statement) {
	key := s.String()
	for _, old := range c.stmts {
		if old.String() == key {
			return
		}
	}
	c.stmts = append(c.stmts, s)
}

func (c *Catalog) invalidateLocked() {
	c.gen.Add(1)
	if len(c.cache) > 0 {
		c.cache = map[string]Binding{}
	}
}

// Generation returns the catalog's mutation counter. It increments on every
// aliasing, registration or statement change; two equal readings bracket a
// window in which every Resolve answer was stable.
func (c *Catalog) Generation() uint64 { return c.gen.Load() }

// Registrations returns a copy of all registrations.
func (c *Catalog) Registrations() []Registration {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Registration, len(c.regs))
	copy(out, c.regs)
	return out
}

// Resolve resolves a URN string. Opaque URNs are first chased through the
// alias table (possibly to URLs); interest-area URNs are bound against
// registrations and intensional statements.
//
// The binding is computed outside the lock, so a mutation may land meanwhile;
// it is cached only if the generation read before computing still stands,
// never into the cache that mutation emptied.
func (c *Catalog) Resolve(urn string) (Binding, error) {
	c.mu.Lock()
	if c.cacheEnabled {
		if b, ok := c.cache[urn]; ok {
			c.hits++
			c.mu.Unlock()
			return cloneBinding(b), nil
		}
		c.misses++
	}
	gen := c.gen.Load()
	c.mu.Unlock()

	b, err := c.resolveUncached(urn, map[string]bool{})
	if err != nil {
		return Binding{}, err
	}
	c.mu.Lock()
	if c.cacheEnabled && b.Known() && c.gen.Load() == gen {
		if len(c.cache) >= resolveCacheMax {
			c.cache = map[string]Binding{}
		}
		c.cache[urn] = cloneBinding(b)
	}
	c.mu.Unlock()
	return b, nil
}

func cloneBinding(b Binding) Binding {
	out := Binding{Routes: append([]string(nil), b.Routes...)}
	if b.Expr != nil {
		out.Expr = b.Expr.Clone()
	}
	return out
}

func (c *Catalog) resolveUncached(urn string, seen map[string]bool) (Binding, error) {
	if seen[urn] {
		return Binding{}, fmt.Errorf("catalog: alias cycle through %q", urn)
	}
	seen[urn] = true

	if namespace.IsAreaURN(urn) {
		area, err := namespace.DecodeURN(urn)
		if err != nil {
			return Binding{}, err
		}
		return c.bindArea(urn, area), nil
	}

	c.mu.RLock()
	targets := append([]string(nil), c.aliases[urn]...)
	c.mu.RUnlock()
	if len(targets) == 0 {
		// An opaque name this catalog has never heard of: the best this
		// peer can do is route toward servers with broader knowledge
		// (meta-index servers first, since opaque names carry no area to
		// match against).
		return Binding{Routes: c.fallbackRoutes()}, nil
	}
	var exprs []*algebra.Node
	var routes []string
	for _, t := range targets {
		if isURL(t) {
			u, pathExp := splitURL(t)
			exprs = append(exprs, algebra.URL(u, pathExp))
			continue
		}
		sub, err := c.resolveUncached(t, seen)
		if err != nil {
			return Binding{}, err
		}
		if sub.Expr != nil {
			exprs = append(exprs, sub.Expr)
		}
		routes = append(routes, sub.Routes...)
	}
	b := Binding{Routes: dedupe(routes)}
	switch len(exprs) {
	case 0:
	case 1:
		b.Expr = exprs[0]
	default:
		b.Expr = algebra.Union(exprs...)
	}
	return b, nil
}

func isURL(s string) bool {
	return len(s) >= 4 && s[:4] == "http"
}

// fallbackRoutes lists index/meta-index servers to try for names this
// catalog cannot interpret: authoritative before not, broadest interest
// area first (a meta server is likelier to know an arbitrary name).
func (c *Catalog) fallbackRoutes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	type hit struct {
		addr  string
		auth  bool
		cells int
	}
	var hits []hit
	for _, reg := range c.regs {
		if reg.Role != RoleIndex && reg.Role != RoleMetaIndex {
			continue
		}
		if reg.Addr == c.self {
			continue
		}
		hits = append(hits, hit{addr: reg.Addr, auth: reg.Authoritative, cells: areaWeight(reg.Area)})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].auth != hits[j].auth {
			return hits[i].auth
		}
		if hits[i].cells != hits[j].cells {
			return hits[i].cells < hits[j].cells
		}
		return hits[i].addr < hits[j].addr
	})
	addrs := make([]string, len(hits))
	for i, h := range hits {
		addrs[i] = h.addr
	}
	return dedupe(addrs)
}

// splitURL separates a URL alias target into the server part and the
// collection identifier (§3.2): "http://tracks:9020/data[id=9]" yields
// ("http://tracks:9020", "/data[id=9]"). A bare host (or trailing slash
// only) yields an empty path expression.
func splitURL(s string) (url, pathExp string) {
	rest := s
	scheme := ""
	for _, p := range []string{"http://", "https://"} {
		if len(rest) > len(p) && rest[:len(p)] == p {
			scheme, rest = p, rest[len(p):]
			break
		}
	}
	i := -1
	for j := 0; j < len(rest); j++ {
		if rest[j] == '/' {
			i = j
			break
		}
	}
	if i < 0 {
		return s, ""
	}
	path := rest[i:]
	if path == "/" {
		path = ""
	}
	return scheme + rest[:i], path
}

func dedupe(ss []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// bindArea constructs the binding for an interest-area URN: the union of
// overlapping base collections, improved by intensional statements into Or
// alternatives, plus routes to overlapping index/meta-index servers.
func (c *Catalog) bindArea(urn string, area namespace.Area) Binding {
	c.mu.RLock()
	defer c.mu.RUnlock()

	// 1. Base data: collections whose area overlaps the query area.
	type baseHit struct {
		addr string
		coll Collection
	}
	var hits []baseHit
	for _, reg := range c.regs {
		if reg.Role != RoleBase {
			continue
		}
		for _, coll := range reg.Collections {
			if coll.Area.Overlaps(area) {
				hits = append(hits, baseHit{addr: reg.Addr, coll: coll})
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].addr != hits[j].addr {
			return hits[i].addr < hits[j].addr
		}
		return hits[i].coll.Name < hits[j].coll.Name
	})

	var expr *algebra.Node
	if len(hits) > 0 {
		leaves := make([]*algebra.Node, len(hits))
		for i, h := range hits {
			leaf := algebra.URL(h.addr, h.coll.PathExp)
			leaf.Annotate(algebra.AnnotSource, h.addr)
			for k, v := range h.coll.Annotations {
				leaf.Annotate(k, v)
			}
			leaves[i] = leaf
		}
		if len(leaves) == 1 {
			expr = leaves[0]
		} else {
			expr = algebra.Union(leaves...)
		}
		present := map[string]bool{}
		for _, h := range hits {
			present[h.addr] = true
		}
		expr = c.applyStatementsLocked(urn, area, expr, present)
	}

	// 2. Routes: index/meta-index servers overlapping the area, most
	// specific (smallest) interest area first, authoritative before not,
	// never ourselves.
	type routeHit struct {
		addr  string
		auth  bool
		cells int
	}
	var routes []routeHit
	for _, reg := range c.regs {
		if reg.Role != RoleIndex && reg.Role != RoleMetaIndex {
			continue
		}
		if reg.Addr == c.self {
			continue
		}
		if reg.Area.Overlaps(area) {
			routes = append(routes, routeHit{addr: reg.Addr, auth: reg.Authoritative, cells: areaWeight(reg.Area)})
		}
	}
	sort.Slice(routes, func(i, j int) bool {
		if routes[i].auth != routes[j].auth {
			return routes[i].auth
		}
		if routes[i].cells != routes[j].cells {
			return routes[i].cells > routes[j].cells
		}
		return routes[i].addr < routes[j].addr
	})
	addrs := make([]string, len(routes))
	for i, r := range routes {
		addrs[i] = r.addr
	}
	return Binding{Expr: expr, Routes: dedupe(addrs)}
}

// areaWeight approximates an interest area's specificity: the total depth of
// all cell coordinates. Larger is more specific.
func areaWeight(a namespace.Area) int {
	w := 0
	for _, cell := range a.Cells {
		for _, p := range cell.Coords {
			w += p.Depth()
		}
	}
	return w
}

// applyStatementsLocked improves a plain union binding using intensional
// statements, producing Or alternatives (§4.2 Examples 1–3):
//
//   - Equality base[A]@R = base[A]@S with A covering the query area and both
//     servers present in the union: either server alone suffices, so each
//     redundant server's leaves become an Or alternative.
//   - Superset base[A]@R >= base[A]@S{d}: R alone is complete but up to d
//     minutes stale; the alternative routing to both is current.
//   - Index coverage index[A]@R = base[A]@S ∪ …: routing to R substitutes
//     for contacting every base server; R appears as an annotated URN
//     alternative.
func (c *Catalog) applyStatementsLocked(urn string, area namespace.Area, union *algebra.Node, present map[string]bool) *algebra.Node {
	expr := union
	for _, st := range c.stmts {
		if !st.Left.Area.Covers(area) {
			continue
		}
		switch {
		case st.Op == StmtEqual && st.Left.Level == LevelBase && len(st.Right) == 1 &&
			st.Right[0].Level == LevelBase && st.Right[0].Area.Covers(area):
			// Example 1: R and S are interchangeable for this area.
			r, s := st.Left.Addr, st.Right[0].Addr
			if present[r] && present[s] {
				altR := pruneServers(expr, map[string]bool{s: true})
				altS := pruneServers(expr, map[string]bool{r: true})
				if altR != nil && altS != nil {
					altR.SetStaleness(st.Right[0].DelayMin)
					altS.SetStaleness(0)
					expr = algebra.Or(altR, altS)
				}
			}

		case st.Op == StmtSuperset && st.Left.Level == LevelBase:
			// Example 3: R ⊇ S{d}: R alone (stale up to d) | R ∪ S (current).
			r := st.Left.Addr
			maxDelay := 0
			allCovered := true
			for _, t := range st.Right {
				if !t.Area.Covers(area) {
					allCovered = false
					break
				}
				if t.DelayMin > maxDelay {
					maxDelay = t.DelayMin
				}
			}
			if !allCovered || !present[r] {
				continue
			}
			others := map[string]bool{}
			for _, t := range st.Right {
				if present[t.Addr] {
					others[t.Addr] = true
				}
			}
			if len(others) == 0 {
				continue
			}
			rOnly := pruneServers(expr, others)
			if rOnly == nil {
				continue
			}
			rOnly.SetStaleness(maxDelay)
			full := expr.Clone()
			full.SetStaleness(0)
			expr = algebra.Or(rOnly, full)

		case st.Op == StmtEqual && st.Left.Level == LevelIndex:
			// Example 2: index[A]@R = union of base terms. Routing to R can
			// substitute for contacting all the listed base servers.
			allCovered := true
			for _, t := range st.Right {
				if t.Level != LevelBase || !t.Area.Covers(area) {
					allCovered = false
					break
				}
			}
			if !allCovered {
				continue
			}
			covered := map[string]bool{}
			for _, t := range st.Right {
				covered[t.Addr] = true
			}
			anyPresent := false
			for a := range covered {
				if present[a] {
					anyPresent = true
					break
				}
			}
			if !anyPresent {
				continue
			}
			viaIndex := algebra.URN(urn)
			viaIndex.Annotate(AnnotRoute, st.Left.Addr)
			viaIndex.Annotate(algebra.AnnotSource, st.Left.Addr)
			direct := expr.Clone()
			expr = algebra.Or(viaIndex, direct)
		}
	}
	return expr
}

// pruneServers removes URL leaves sourced at the given servers from a
// union/leaf expression, returning nil when nothing remains or when the
// expression shape is not a plain union of URL leaves.
func pruneServers(expr *algebra.Node, drop map[string]bool) *algebra.Node {
	collect := func(n *algebra.Node) ([]*algebra.Node, bool) {
		switch n.Kind {
		case algebra.KindURL:
			return []*algebra.Node{n}, true
		case algebra.KindUnion:
			var out []*algebra.Node
			for _, c := range n.Children {
				if c.Kind != algebra.KindURL {
					return nil, false
				}
				out = append(out, c)
			}
			return out, true
		default:
			return nil, false
		}
	}
	leaves, ok := collect(expr)
	if !ok {
		return nil
	}
	var kept []*algebra.Node
	for _, l := range leaves {
		src, _ := l.Annotation(algebra.AnnotSource)
		if src == "" {
			src = l.URL
		}
		if !drop[src] {
			kept = append(kept, l.Clone())
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	default:
		return algebra.Union(kept...)
	}
}
