// Package mqp implements the mutant query plan processor — the paper's
// primary contribution (§2, Fig. 2). A Processor is one server's processing
// station: it parses an incoming plan, binds URNs through the local catalog,
// rewrites the plan (push-select-through-union, or-choice, flattening),
// resolves URLs to data, reduces locally-evaluable sub-plans with the query
// engine, and decides where the mutated plan travels next.
//
// Processors are deliberately independent of the transport: the peer package
// wires them to simnet, and cmd/mqpd wires the same code to real TCP
// sockets.
//
// A Processor is stateless per step: everything one processing cycle needs
// lives in a StepContext plus stack-local state, so a single instance serves
// any number of concurrent workers. The only shared mutable state is the
// optional prepared-plan cache (plancache.go), which is internally
// synchronized and hands out immutable entries.
package mqp

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/namespace"
	"repro/internal/provenance"
	"repro/internal/route"
	"repro/internal/xmltree"
)

// StepContext carries the per-invocation state of one processing cycle: the
// virtual time of the message being processed (stamped on provenance
// records), and the request RTTs the step accumulated pulling remote data
// (added to the forwarded plan's virtual time by the transport). The zero
// value is usable: time zero.
type StepContext struct {
	// Now is the virtual time of the message being processed.
	Now time.Duration
	// PullDelay accumulates the RTTs of data pulls made during the step.
	PullDelay time.Duration
}

// Fetcher resolves a URL leaf to data. pathExp identifies the collection at
// the server (§3.2). It returns the items and their staleness bound in
// minutes. The StepContext is the invoking step's; a remote fetcher charges
// the pull RTT to sc.PullDelay.
type Fetcher func(sc *StepContext, addr, pathExp string) (items []*xmltree.Node, stalenessMin int, err error)

// Policy is the policy manager of Fig. 2: it decides which locally
// evaluable sub-plans to evaluate, which Or alternative to keep, and
// whether to pull a remote URL's data or leave the leaf for forwarding.
type Policy interface {
	// ShouldReduce reports whether a locally evaluable sub-plan with the
	// given estimated output cardinality should be evaluated here.
	ShouldReduce(sub *algebra.Node, estCard int) bool
	// ChooseOr picks the Or alternative to keep (index), or -1 to defer
	// the choice to a later server.
	ChooseOr(alts []*algebra.Node, prefs Prefs) int
	// ShouldFetch reports whether the processor should pull the remote
	// URL's data instead of leaving the leaf as a forwarding candidate.
	ShouldFetch(addr, pathExp string, estCard int) bool
}

// Prefs is the query-level tradeoff control of §4.3: a target evaluation
// time plus a binary preference for complete versus current answers. Prefs
// travel as annotations on the plan root.
type Prefs struct {
	BudgetMS      int
	PreferCurrent bool
}

// Annotation keys for Prefs on the plan root.
const (
	annotBudgetMS      = "budget-ms"
	annotPreferCurrent = "prefer-current"
)

// SetPrefs stores prefs on the plan root.
func SetPrefs(p *algebra.Plan, prefs Prefs) {
	p.Root.Annotate(annotBudgetMS, strconv.Itoa(prefs.BudgetMS))
	p.Root.Annotate(annotPreferCurrent, strconv.FormatBool(prefs.PreferCurrent))
}

// GetPrefs reads prefs from the plan root; missing annotations yield zero
// values.
func GetPrefs(p *algebra.Plan) Prefs {
	prefs := Prefs{}
	if v, ok := p.Root.Annotation(annotBudgetMS); ok {
		if n, err := strconv.Atoi(v); err == nil {
			prefs.BudgetMS = n
		}
	}
	if v, ok := p.Root.Annotation(annotPreferCurrent); ok {
		prefs.PreferCurrent = v == "true"
	}
	return prefs
}

// DefaultPolicy implements Policy with the simple scheme the paper sketches:
// evaluate everything up to a cardinality ceiling, choose alternatives by
// the complete-vs-current preference under the time budget, and always pull
// data.
type DefaultPolicy struct {
	// MaxReduceCard declines evaluation of sub-plans whose estimated output
	// exceeds it (§5.1: "S may decline to evaluate B at this point, because
	// of the size of res(B)"). Zero means no ceiling.
	MaxReduceCard int
}

// hopCostMS estimates per-site latency when ChooseOr checks an alternative
// against the query's time budget.
const hopCostMS = 50

// ShouldReduce implements Policy.
func (d DefaultPolicy) ShouldReduce(_ *algebra.Node, estCard int) bool {
	return d.MaxReduceCard <= 0 || estCard < 0 || estCard <= d.MaxReduceCard
}

// ChooseOr implements Policy: pick the most-current alternative the budget
// allows when the query prefers currency, otherwise the fewest-sites
// alternative.
func (d DefaultPolicy) ChooseOr(alts []*algebra.Node, prefs Prefs) int {
	if prefs.PreferCurrent {
		idx := algebra.PickMostCurrent(alts)
		if idx >= 0 && prefs.BudgetMS > 0 {
			sites := len(alts[idx].URLs()) + len(alts[idx].URNs())
			if sites*hopCostMS > prefs.BudgetMS {
				// The current alternative does not fit the budget; fall
				// back to the cheapest one.
				return algebra.PickFewestSites(alts)
			}
		}
		return idx
	}
	return algebra.PickFewestSites(alts)
}

// ShouldFetch implements Policy.
func (DefaultPolicy) ShouldFetch(_, _ string, _ int) bool { return true }

// ForwardOnlyPolicy never pulls remote data: plans always travel to the
// data, the purest form of mutant query evaluation.
type ForwardOnlyPolicy struct {
	DefaultPolicy
}

// ShouldFetch implements Policy.
func (ForwardOnlyPolicy) ShouldFetch(_, _ string, _ int) bool { return false }

// Config assembles a Processor.
type Config struct {
	// Self is this server's address; URL leaves addressed here resolve via
	// FetchLocal.
	Self string
	// Catalog is the local catalog used to bind URNs.
	Catalog *catalog.Catalog
	// FetchLocal serves this server's own collections.
	FetchLocal Fetcher
	// FetchRemote pulls data from another server, or nil when the
	// deployment forwards plans instead of pulling data.
	FetchRemote Fetcher
	// Policy defaults to ForwardOnlyPolicy{}: plans travel to the data.
	// DefaultPolicy pulls data through FetchRemote instead.
	Policy Policy
	// PushSelect enables the select-through-union rewrite (Fig. 4a);
	// the E1/E5 ablation toggles it.
	PushSelect bool
	// PruneStats enables histogram-based pruning of provably-empty union
	// branches (§3.2 attribute indices; see sqo.go).
	PruneStats bool
	// Key signs provenance visits; nil disables provenance recording.
	Key []byte
	// Authority is the interest area this server is authoritative for
	// (§3.3): it "strives to know about all base servers within its area
	// of interest". An area URN fully covered by Authority that matches no
	// registration binds to the empty collection instead of leaving the
	// plan stuck; a partially covered URN binds the covered cells and
	// re-emits the remainder as a new URN. Empty disables both behaviors.
	Authority namespace.Area
	// SizeOf reports the item count of a local collection, letting the
	// policy decline materializing an oversized one (§5.1). Nil means
	// sizes are unknown and local URLs always materialize.
	SizeOf func(pathExp string) int
	// StatsFor returns the annotations (cardinality, histograms, distinct
	// counts) a server publishes on a collection it declined to
	// materialize (§5.1). Nil disables.
	StatsFor func(pathExp string) map[string]string
	// PlanCacheSize, when positive, enables the prepared-plan cache with
	// the given entry cap: a plan whose operator tree has the exact bytes of
	// one already processed skips building the tree and the
	// bind/rewrite/resolve/reduce stages, and reuses the prepared result. The
	// cache empties when the catalog — or any state covered by
	// CacheGeneration — changes.
	PlanCacheSize int
	// CacheGeneration, when non-nil, folds an additional mutation counter
	// into plan-cache invalidation (e.g. the serving peer's collection
	// store). It must be monotone non-decreasing and safe for concurrent
	// use.
	CacheGeneration func() uint64
	// Shortcuts, when non-nil, is the learned routing table mined from
	// provenance trails (internal/route). The routing stage consults it
	// ahead of catalog routes: a live (area → server) edge sends the plan
	// straight to a server known to have bound that area before, skipping
	// the hierarchy walk. Nil disables — routing is then byte-identical to
	// a build without learning.
	Shortcuts *route.Shortcuts
	// InternDoc, when non-nil, maps a frozen payload document to its
	// canonical alias (typically blobstore.Canonicalize on the serving
	// peer's store). Prepared-plan cache entries pass their freight through
	// it so a cached materialization pins one resident copy of payloads the
	// store already holds, not a private duplicate. It must not take
	// ownership: cache eviction does no release bookkeeping.
	InternDoc func(n *xmltree.Node) *xmltree.Node
}

// Processor is one server's MQP processing station. It holds no per-step
// state — a single Processor serves all of a peer's workers concurrently.
type Processor struct {
	cfg   Config
	cache *planCache
}

// New creates a Processor, applying defaults.
func New(cfg Config) (*Processor, error) {
	// Self is the only name this processor marks in a plan's visited memory,
	// whose packed wire form splits records on ';' and fields on spaces.
	if cfg.Self == "" || strings.ContainsRune(cfg.Self, ';') || strings.IndexFunc(cfg.Self, unicode.IsSpace) >= 0 {
		return nil, fmt.Errorf("mqp: config needs a Self address without ';' or spaces, got %q", cfg.Self)
	}
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("mqp: config needs a Catalog")
	}
	if cfg.Policy == nil {
		cfg.Policy = ForwardOnlyPolicy{}
	}
	p := &Processor{cfg: cfg}
	if cfg.PlanCacheSize > 0 {
		p.cache = newPlanCache(cfg.PlanCacheSize)
	}
	return p, nil
}

// Outcome reports what one processing step did and where the plan goes.
type Outcome struct {
	// Done means the plan reduced to a constant; ship it to plan.Target.
	Done bool
	// Partial means the plan is not constant but no productive hop remains:
	// every forwarding candidate has already seen the plan in its current
	// state, or has exhausted its revisit budget (internal/route). The
	// transport should deliver an explicit partial result (route.Partial) to
	// plan.Target instead of forwarding.
	Partial bool
	// NextHop is the preferred server to forward the plan to when not done.
	NextHop string
	// NextHops lists every forwarding candidate in preference order
	// (NextHop first). Transports fall back along the tail when a
	// destination is unreachable — the paper's fault-tolerance claim (§1).
	NextHops []string
	// Bound, Fetched, Reduced, Rewrites count the mutations applied.
	Bound    int
	Fetched  int
	Reduced  int
	Rewrites int
}

// step is the stack-local state of one processing cycle. It exists so the
// Processor itself stays stateless: everything a stage records or consults
// mid-step — the provenance trail, the decline permission, whether remote
// IO happened — lives here and dies with the call.
type step struct {
	p  *Processor
	sc *StepContext
	// trail is the parsed provenance trail, nil when the server is unkeyed.
	trail *provenance.Trail
	// declineAllowed is recomputed as stages progress: a server may only
	// decline to materialize a local collection while the plan still has
	// other unresolved work elsewhere; once this server's collections are
	// the last leaves standing, it must materialize so the plan can finish.
	declineAllowed bool
	// remoteIO notes that the step pulled (or tried to pull) remote data;
	// such a step is not cacheable — its outcome depends on network state.
	remoteIO bool
	// collect accumulates provenance actions for a prospective cache entry.
	collect bool
	actions []provAction
}

// record appends one provenance visit (and collects it for the plan cache
// when this step is a cache-fill candidate).
func (st *step) record(action provenance.Action, detail string, stale int) {
	if st.collect {
		st.actions = append(st.actions, provAction{action: action, detail: detail, stale: stale})
	}
	if st.trail == nil {
		return
	}
	st.trail.Append(provenance.Visit{
		Server:       st.p.cfg.Self,
		Action:       action,
		Detail:       detail,
		At:           st.sc.Now,
		StalenessMin: stale,
	}, st.p.cfg.Key)
}

// replay re-records the provenance actions of a cached step, so a cache hit
// signs exactly the trail the original processing would have.
func (st *step) replay(actions []provAction) {
	if st.trail == nil {
		return
	}
	for _, a := range actions {
		st.trail.Append(provenance.Visit{
			Server:       st.p.cfg.Self,
			Action:       a.action,
			Detail:       a.detail,
			At:           st.sc.Now,
			StalenessMin: a.stale,
		}, st.p.cfg.Key)
	}
}

// Step performs one server's processing cycle on the plan, mutating it in
// place, and returns the outcome. The plan's provenance section is extended
// when the processor has a signing key. It runs at virtual time 0; use
// StepCtx to pass time explicitly.
//
// Step consumes the plan: reduction freezes payload documents in place
// (see engine.Reduce), so a caller constructing a plan from documents it
// intends to keep mutating should hand Step a Clone. Plans decoded from
// the wire — the normal case — arrive with frozen payloads already.
func (p *Processor) Step(plan *algebra.Plan) (Outcome, error) {
	return p.StepCtx(nil, plan)
}

// StepCtx is Step with an explicit per-invocation context: virtual time in,
// accumulated pull delay out; a nil sc runs at virtual time 0. Safe to call
// from any number of goroutines on one Processor; sc must not be shared
// between concurrent steps.
func (p *Processor) StepCtx(sc *StepContext, plan *algebra.Plan) (Outcome, error) {
	if sc == nil {
		sc = &StepContext{}
	}
	// The prepared-plan cache is asked before the operator tree exists: a plan
	// off the wire (algebra.UnmarshalEnvelope) carries its operator element
	// unbuilt, and a hit never builds it. Only data-free plans are keyed.
	var (
		e   *cacheEntry
		key []byte
		gen uint64
	)
	if p.cache != nil {
		buf := keyBufs.Get().(*[]byte)
		defer putKeyBuf(buf)
		var ok bool
		if key, ok = plan.PreparedKey(buf); ok {
			gen = p.generation()
			e = p.cache.lookup(key, gen)
		}
	}
	if e != nil {
		// The entry was inserted only after Validate and the transfer policy
		// passed on these exact operator bytes here; the envelope's target is
		// the one thing they did not cover.
		plan.Root = e.outRoot
		if plan.Target == "" {
			return Outcome{}, fmt.Errorf("mqp: plan %q has no target", plan.ID)
		}
	} else {
		if err := plan.Open(); err != nil {
			return Outcome{}, err
		}
		if err := plan.Validate(); err != nil {
			return Outcome{}, err
		}
		if err := p.checkTransferPolicy(plan); err != nil {
			return Outcome{}, err
		}
	}
	// The trail is parsed only when this server signs visits; an unkeyed
	// server forwards the <provenance> section untouched (it travels
	// verbatim — and, after one wire hop, frozen — in plan.Extra).
	st := &step{p: p, sc: sc}
	if p.cfg.Key != nil {
		t, err := provenance.FromPlan(plan)
		if err != nil {
			return Outcome{}, err
		}
		st.trail = t
	}

	out := Outcome{}
	var routeCandidates []string
	// shared marks plan.Root as an alias of a cache entry's prepared root:
	// read-shared across goroutines, it must be cloned before any further
	// mutation (the last-stop materialization below is the only one).
	shared := e != nil
	if e != nil {
		// Prepared-plan fast path: stages 1–5 already ran for this exact plan
		// against this catalog/store generation. The prepared root is adopted
		// (shared, frozen payloads, read-only), the provenance the original
		// run recorded is replayed, and the per-plan routing stage runs live —
		// routing depends on the plan's own visited memory and target, so it
		// is never cached.
		out.Bound, out.Fetched = e.bound, e.fetched
		out.Reduced, out.Rewrites = e.reduced, e.rewrites
		routeCandidates = append(routeCandidates, e.routes...)
		st.replay(e.actions)
		if st.trail != nil {
			provenance.ToPlan(plan, st.trail)
		}
	} else {
		st.collect = key != nil && st.trail != nil

		prefs := GetPrefs(plan)

		// 1. Bind URNs through the catalog, honoring §5.2 ordering policies.
		root, err := st.bindURNs(plan, plan.Root, &out, &routeCandidates)
		if err != nil {
			return Outcome{}, err
		}
		plan.Root = root

		// 2. Rewrites. Semantic pruning first (it needs the select still
		// above the union): drop union branches whose published attribute
		// indices prove the selection empty there (§3.2). Then flatten and
		// push the (remaining) selections through unions/ors. Flattening
		// records a visit like every other mutation: a server whose only work
		// is a flatten must still sign the trail, or the visited ⊆ trail
		// consistency the chaos harness checks would flag it.
		if n := algebra.FlattenUnions(plan.Root); n > 0 {
			out.Rewrites += n
			st.record(provenance.ActionOptimize, "flatten", 0)
		}
		if p.cfg.PruneStats {
			if n := PruneByStats(plan.Root); n > 0 {
				out.Rewrites += n
				st.record(provenance.ActionOptimize, "prune-stats", 0)
			}
		}
		if p.cfg.PushSelect {
			if n := algebra.PushSelectThroughUnion(plan.Root); n > 0 {
				out.Rewrites += n
				st.record(provenance.ActionOptimize, "push-select", 0)
			}
		}

		// 3. Resolve Or alternatives per policy and preferences.
		if n := algebra.OrChoice(plan.Root, func(alts []*algebra.Node) int {
			return p.cfg.Policy.ChooseOr(alts, prefs)
		}); n > 0 {
			out.Rewrites += n
			st.record(provenance.ActionOptimize, "or-choice", 0)
		}

		// 4+5. Materialize, rebind and reduce (declining allowed while the
		// plan still has work elsewhere).
		if err := st.materializeAndReduce(plan, false, &out, &routeCandidates); err != nil {
			return Outcome{}, err
		}

		idle := out.Bound+out.Fetched+out.Reduced+out.Rewrites == 0
		if idle {
			st.record(provenance.ActionForward, "", 0)
		}
		// A step that bound, fetched, reduced and rewrote nothing has no work
		// to replay: caching the pure forward would cost a clone and an
		// eviction scan to save a catalog miss.
		if key != nil && !st.remoteIO && !idle {
			outRoot := plan.Root.Clone()
			if p.cfg.InternDoc != nil {
				internDocs(outRoot, p.cfg.InternDoc)
			}
			p.cache.insert(key, gen, &cacheEntry{
				outRoot:  outRoot,
				routes:   append([]string(nil), routeCandidates...),
				actions:  append([]provAction(nil), st.actions...),
				bound:    out.Bound,
				fetched:  out.Fetched,
				reduced:  out.Reduced,
				rewrites: out.Rewrites,
			})
		}
		if st.trail != nil {
			provenance.ToPlan(plan, st.trail)
		}
	}

	// 6. Routing decision (internal/route): the plan carries its own routing
	// state — select productive hops against its visited-server memory, then
	// record this visit with the fingerprint of the state being forwarded.
	// Always live, never cached: it depends on per-plan state (visited
	// memory, target), not just the plan's structure.
	if plan.IsConstant() {
		out.Done = true
		return out, nil
	}
	dec := route.Select(plan, p.cfg.Self, routeCandidates, p.learned(plan, sc)...)
	if dec.Reason != route.Forward && p.hasLocalWork(plan.Root) {
		// Last stop (§5.1): declining local work is only legitimate while
		// the plan can still travel. With no productive hop left, this
		// server must materialize and evaluate whatever it declined, so the
		// plan finishes — or at worst leaves as a richer partial.
		if shared {
			// The prepared root is shared with the cache (and possibly other
			// in-flight plans); take a private copy before mutating it.
			plan.Root = plan.Root.Clone()
			shared = false
		}
		if err := st.materializeAndReduce(plan, true, &out, &routeCandidates); err != nil {
			return Outcome{}, err
		}
		if st.trail != nil {
			provenance.ToPlan(plan, st.trail)
		}
		if plan.IsConstant() {
			out.Done = true
			return out, nil
		}
		// Recompute learned candidates: materialization may have bound the
		// URNs a shortcut pointed at, and the catalog generation may differ.
		dec = route.Select(plan, p.cfg.Self, routeCandidates, p.learned(plan, sc)...)
	}
	dec.MarkVisited(plan, p.cfg.Self)
	switch dec.Reason {
	case route.NoRoute:
		return out, fmt.Errorf("mqp: plan %q stuck at %s: no binding, no route", plan.ID, p.cfg.Self)
	case route.Exhausted:
		out.Partial = true
		return out, nil
	}
	out.NextHops = dec.Hops
	out.NextHop = out.NextHops[0]
	return out, nil
}

// learned returns the shortcut-table routing candidates for the plan's
// outstanding URN leaves — the learned tier route.Select ranks ahead of
// catalog routes. Nil Shortcuts (learning disabled) yields nil, leaving the
// routing decision byte-identical to a build without learning.
func (p *Processor) learned(plan *algebra.Plan, sc *StepContext) []string {
	if p.cfg.Shortcuts == nil {
		return nil
	}
	return p.cfg.Shortcuts.Candidates(plan.Root, p.cfg.Self, p.cfg.Catalog.Generation(), sc.Now)
}

// generation is the plan cache's invalidation epoch: the catalog's mutation
// counter plus the transport's (e.g. the peer collection store's). Both are
// monotone, so the sum changes whenever either does.
func (p *Processor) generation() uint64 {
	g := p.cfg.Catalog.Generation()
	if p.cfg.CacheGeneration != nil {
		g += p.cfg.CacheGeneration()
	}
	return g
}

// keyBufs recycles the buffers PreparedKey serializes into when a plan's
// operator bytes are not memoized (a plan built in memory): a lookup does not
// allocate.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// putKeyBuf returns a key buffer to keyBufs unless one huge plan grew it.
func putKeyBuf(b *[]byte) {
	if cap(*b) <= 1<<16 {
		keyBufs.Put(b)
	}
}

// internDocs rewrites every payload document in a freshly cloned prepared
// root to its canonical alias via Config.InternDoc. The clone is private to
// the cache entry being built, so the in-place rewrite is safe; the docs
// themselves are frozen aliases either way.
func internDocs(root *algebra.Node, intern func(*xmltree.Node) *xmltree.Node) {
	root.Walk(func(m *algebra.Node) bool {
		if m.Kind == algebra.KindData {
			for i, d := range m.Docs {
				m.Docs[i] = intern(d)
			}
		}
		return true
	})
}

// materializeAndReduce is the resolve→rebind→reduce tail of a processing
// step (Step's stages 4, 4b and 5): resolve URLs per policy, run a second
// binding pass (materialized data may satisfy §5.2 ordering prerequisites,
// unblocking URNs the first pass deferred), and reduce maximal
// locally-evaluable sub-plans. With declineForbidden the policy may not
// decline anything — the last-stop rule (§5.1: once this server is the
// plan's final stop, it must evaluate).
func (st *step) materializeAndReduce(plan *algebra.Plan, declineForbidden bool, out *Outcome,
	routes *[]string) error {
	st.declineAllowed = !declineForbidden && st.p.hasForeignWork(plan.Root)
	root, err := st.resolveURLs(plan.Root, out, routes)
	if err != nil {
		return err
	}
	plan.Root = root
	root, err = st.bindURNs(plan, plan.Root, out, routes)
	if err != nil {
		return err
	}
	plan.Root = root
	st.declineAllowed = !declineForbidden && st.p.hasForeignWork(plan.Root)
	plan.Root = st.reduce(plan.Root, true, out)
	return nil
}

// hasLocalWork reports whether the plan still holds URL leaves served here —
// work this server declined or failed to materialize earlier in the step.
func (p *Processor) hasLocalWork(root *algebra.Node) bool {
	local := false
	root.Walk(func(m *algebra.Node) bool {
		if m.Kind == algebra.KindURL && route.AddrOf(m.URL) == p.cfg.Self {
			local = true
			return false
		}
		return true
	})
	return local
}

// bindURNs replaces resolvable URN leaves with catalog bindings (post-order
// so nested structures bind in one pass).
func (st *step) bindURNs(plan *algebra.Plan, n *algebra.Node, out *Outcome, routes *[]string) (*algebra.Node, error) {
	p := st.p
	for i, c := range n.Children {
		nc, err := st.bindURNs(plan, c, out, routes)
		if err != nil {
			return nil, err
		}
		n.Children[i] = nc
	}
	if n.Kind != algebra.KindURN {
		return n, nil
	}
	// §5.2 ordering policy: this URN may not bind until its prerequisite
	// has been bound elsewhere.
	if bindDeferred(plan, n.URN) {
		return n, nil
	}
	// A leaf already routed to another server is left for forwarding.
	if route, ok := n.Annotation(catalog.AnnotRoute); ok && route != p.cfg.Self {
		*routes = append(*routes, route)
		return n, nil
	}
	b, err := p.cfg.Catalog.Resolve(n.URN)
	if err != nil {
		return nil, err
	}
	if expr, ok := p.authoritativeBind(n.URN, b); ok {
		out.Bound++
		st.record(provenance.ActionBind, n.URN, 0)
		markOrigin(expr, n.URN)
		return expr, nil
	}
	if b.Expr != nil {
		out.Bound++
		st.record(provenance.ActionBind, n.URN, 0)
		markOrigin(b.Expr, n.URN)
		return b.Expr, nil
	}
	*routes = append(*routes, b.Routes...)
	return n, nil
}

// authoritativeBind applies the §3.3 authoritative-server semantics to an
// area URN: full coverage with no matching registrations binds to the empty
// collection; partial coverage binds the covered cells and re-emits the
// uncovered remainder as a new URN for other servers. It reports whether it
// produced a binding.
func (p *Processor) authoritativeBind(urn string, b catalog.Binding) (*algebra.Node, bool) {
	if p.cfg.Authority.Empty() || !namespace.IsAreaURN(urn) {
		return nil, false
	}
	area, err := namespace.DecodeURN(urn)
	if err != nil {
		return nil, false
	}
	var covered, uncovered []namespace.Cell
	for _, cell := range area.Cells {
		if p.cfg.Authority.CoversCell(cell) {
			covered = append(covered, cell)
		} else {
			uncovered = append(uncovered, cell)
		}
	}
	switch {
	case len(uncovered) == 0 && b.Expr == nil && len(b.Routes) == 0:
		// Authoritative and empty: the answer is the empty collection.
		empty := algebra.Data()
		empty.SetCard(0)
		return empty, true
	case len(covered) > 0 && len(uncovered) > 0 && b.Expr != nil:
		// Bind the covered part here; the remainder travels on as its own
		// URN. Progress is guaranteed: each such hop removes at least one
		// cell from the outstanding area.
		rem := algebra.URN(namespace.EncodeURN(namespace.NewArea(uncovered...)))
		return algebra.Union(b.Expr, rem), true
	default:
		return nil, false
	}
}

// resolveURLs substitutes data for URL leaves served here (and for remote
// ones when the policy pulls).
func (st *step) resolveURLs(n *algebra.Node, out *Outcome, routes *[]string) (*algebra.Node, error) {
	p := st.p
	for i, c := range n.Children {
		nc, err := st.resolveURLs(c, out, routes)
		if err != nil {
			return nil, err
		}
		n.Children[i] = nc
	}
	if n.Kind != algebra.KindURL {
		return n, nil
	}
	addr := route.AddrOf(n.URL)
	var fetch Fetcher
	switch {
	case addr == p.cfg.Self && p.cfg.FetchLocal != nil:
		// §5.1: a server may decline to materialize an oversized local
		// collection, annotating the leaf with statistics instead so later
		// servers can plan around it. Materializing local data is the first
		// step of reduction, so the reduction ceiling governs.
		if p.cfg.SizeOf != nil && st.declineAllowed {
			if est := p.cfg.SizeOf(n.PathExp); est >= 0 && !p.cfg.Policy.ShouldReduce(n, est) {
				n.SetCard(est)
				if p.cfg.StatsFor != nil {
					for k, v := range p.cfg.StatsFor(n.PathExp) {
						n.Annotate(k, v)
					}
				}
				st.record(provenance.ActionAnnotate, n.URL+n.PathExp, 0)
				return n, nil
			}
		}
		fetch = p.cfg.FetchLocal
	case addr != p.cfg.Self && p.cfg.FetchRemote != nil &&
		p.cfg.Policy.ShouldFetch(addr, n.PathExp, n.Card()):
		fetch = p.cfg.FetchRemote
		st.remoteIO = true
	default:
		if addr != p.cfg.Self {
			*routes = append(*routes, addr)
		}
		return n, nil
	}
	items, stale, err := fetch(st.sc, addr, n.PathExp)
	if err != nil {
		// Paper §4.2: a bound server may be unavailable; leave the leaf so
		// a later hop (or alternative) can take over. A failed local fetch
		// must not route the plan back to ourselves.
		if addr != p.cfg.Self {
			*routes = append(*routes, addr)
		}
		return n, nil
	}
	// Both fetchers hand out frozen items (peers freeze collections on
	// install and fetch replies on receipt), so the materialized leaf
	// aliases them and later marshals of this plan never copy the data.
	d := algebra.Data(items...)
	d.SetCard(len(items))
	if stale > 0 {
		d.SetStaleness(stale)
	}
	d.Annotate(algebra.AnnotSource, addr)
	out.Fetched++
	st.record(provenance.ActionData, n.URL+n.PathExp, stale)
	return d, nil
}

// reduce replaces maximal locally-evaluable sub-plans with their results.
// isRoot tracks whether n is the plan root (Display stays in place).
func (st *step) reduce(n *algebra.Node, isRoot bool, out *Outcome) *algebra.Node {
	p := st.p
	if n.Kind == algebra.KindDisplay {
		n.Children[0] = st.reduce(n.Children[0], false, out)
		return n
	}
	if n.Kind == algebra.KindData {
		return n
	}
	if engine.LocallyEvaluable(n) {
		est := algebra.EstimateCard(n)
		if !st.declineAllowed || p.cfg.Policy.ShouldReduce(n, est) {
			d, err := engine.Reduce(n)
			if err == nil {
				// Preserve the worst staleness of the inputs on the result.
				if stl := maxStaleness(n); stl > 0 {
					d.SetStaleness(stl)
				}
				out.Reduced++
				st.record(provenance.ActionReduce, n.Kind.String(), maxStaleness(n))
				return d
			}
		} else {
			// Decline, but leave statistics behind for later servers
			// (§5.1: annotate with cardinality instead of evaluating).
			if est >= 0 {
				n.SetCard(est)
			}
			st.record(provenance.ActionAnnotate, n.Kind.String(), 0)
			return n
		}
	}
	for i, c := range n.Children {
		n.Children[i] = st.reduce(c, false, out)
	}
	return n
}

// hasForeignWork reports whether the plan still references resources not
// served here (URNs, or URLs at other servers).
func (p *Processor) hasForeignWork(root *algebra.Node) bool {
	foreign := false
	root.Walk(func(m *algebra.Node) bool {
		switch m.Kind {
		case algebra.KindURN:
			foreign = true
			return false
		case algebra.KindURL:
			if route.AddrOf(m.URL) != p.cfg.Self {
				foreign = true
				return false
			}
		}
		return true
	})
	return foreign
}

func maxStaleness(n *algebra.Node) int {
	max := 0
	n.Walk(func(m *algebra.Node) bool {
		if st := m.Staleness(); st > max {
			max = st
		}
		return true
	})
	return max
}
