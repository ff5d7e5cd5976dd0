// Package peer assembles the paper's peer roles (§3.2) into a network
// participant: base server (named XML collections addressed by XPath-like
// identifiers), index server and meta-index server. A peer owns a catalog,
// an MQP processor, and a data store, serves and forwards mutant query
// plans over a Transport — a simnet, or TCP links
// (tcp.go, which says what a link does not carry yet) — pushes registrations
// to authoritative servers (§3.3), and models delayed replication (§4.3).
//
// Traffic pricing: the simnet charges what TCP's persistent multiplexed links
// (internal/wire.LinkPool) cost — connection setup on the first message to a
// neighbor, a per-frame header on the rest, setup again after a crash or
// partition severed the link (see simnet.Metrics.LinksOpened).
package peer

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/blobstore"
	"repro/internal/catalog"
	"repro/internal/mqp"
	"repro/internal/namespace"
	"repro/internal/provenance"
	"repro/internal/route"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/xmltree"
)

// Message kinds on the wire. Each is the root name of the document it
// carries, on every transport.
const (
	KindMQP        = "mqp"          // a mutant query plan in flight, or a result at its target
	KindRegister   = "registration" // a registration push (§3.3)
	KindDeregister = "deregister"   // a graceful-leave un-registration
	KindFetch      = "fetch"        // data pull: request a collection's items
	KindExport     = "export"       // harvest: request a peer's registration
	KindBlobFetch  = "blobfetch"    // payload fetch-on-miss (see blob.go)
	// KindResult names no frame a peer sends (a result travels as the <mqp>
	// it is); it stays because the benchmark's stage replay names it.
	KindResult = "result"
)

// Collection is a named collection a base server exports, with the XPath
// identifier other peers use to address it (§3.2).
//
// Installing a collection (AddCollection, SetItems) freezes its items:
// catalog data is immutable while served, so fetch replies, materialized
// plan leaves, and forwarded bodies all alias the same subtrees instead of
// cloning per request. To change data, replace the item slice with freshly
// built documents — never mutate installed items in place.
type Collection struct {
	Name    string
	PathExp string
	Area    namespace.Area
	Items   []*xmltree.Node
	// StalenessMin is non-zero for replicas: how out of date the snapshot
	// may be (§4.3's delay factor).
	StalenessMin int
	// RefreshedAt is the virtual time the replica snapshot was fetched
	// (ReplicateFrom records it). Promote measures the snapshot's age
	// against StalenessMin from here.
	RefreshedAt time.Duration
}

// Result records a finished query arriving back at its issuing peer.
// Partial marks an explicit partial result: the plan could no longer travel
// productively (every remaining hop had already seen it — see
// internal/route), so a server returned what was already reduced. Partial
// items are a sub-multiset of the complete answer.
type Result struct {
	Plan    *algebra.Plan
	At      time.Duration
	Hops    int
	Partial bool
}

// Transport is what a peer asks of its network: a handler attached, a one-way
// frame, a request/reply call, and a neighbor's capability byte.
// *simnet.Network is one; NewTCP makes the other. SendFrame ships the document
// stage writes to msg.To, and Request ships it and returns the reply with the
// virtual time it arrives; msg is the envelope (From, To, Kind, At, Hops) and
// its Body is not read; Kind is the document's root name. SendFrame reports
// only transport failure (simnet.ErrUnreachable, ErrDepthExceeded,
// xmltree.ErrFrame): what the receiver made of the frame is its StuckErrors.
// Every plan and result a peer sends is staged by frame, every registration
// and request by its document, and every document a peer receives — a reply
// too — is a decoded frame, born frozen. PeerCaps is the one way a peer
// learns whether a neighbor holds a payload store (wire.CapBlobRef).
type Transport interface {
	Add(simnet.Peer)
	SendFrame(msg *simnet.Message, stage func(*xmltree.FrameEncoder)) error
	Request(msg *simnet.Message, stage func(*xmltree.FrameEncoder)) (*xmltree.Node, time.Duration, error)
	PeerCaps(to string) (byte, error)
}

// Config assembles a Peer.
type Config struct {
	Addr string
	Net  Transport
	NS   *namespace.Namespace
	// Area is the peer's interest area (may be empty for pure clients).
	Area namespace.Area
	// Authoritative marks the peer's registrations as authoritative for
	// its area (§3.3).
	Authoritative bool
	// Policy defaults to mqp.ForwardOnlyPolicy{}, as in mqp.Config: plans
	// travel to the data. mqp.DefaultPolicy pulls data instead.
	Policy mqp.Policy
	// PushSelect enables the Fig. 4(a) rewrite, which pushes a select
	// through a union; the zero value leaves it off.
	PushSelect bool
	// Key signs provenance records; nil disables provenance.
	Key []byte
	// StatsHistPath, when set, is the numeric field the peer histograms
	// when publishing statistics: on declined collections (§5.1) and as
	// attribute indices inside registrations (§3.2).
	StatsHistPath string
	// StatsKeyPaths are the fields whose distinct counts the peer
	// publishes alongside.
	StatsKeyPaths []string
	// PruneStats enables histogram-based pruning of provably-empty union
	// branches when this peer processes plans (§3.2 attribute indices).
	PruneStats bool
	// Workers > 0 runs delivered plans on a pool of that many workers behind
	// a frame queue of 4×Workers with admission control: a full queue rejects
	// new plans with a partial result annotated "admission" (overload turns
	// into explicit partial results, not latency collapse). Zero keeps the
	// synchronous delivery path: every Deliver processes inline, which the
	// deterministic chaos/experiment harnesses rely on.
	Workers int
	// PlanCacheSize enables the processor's prepared-plan cache with that
	// many entries (see internal/mqp). Zero disables it.
	PlanCacheSize int
	// LearnShortcuts enables learned routing (internal/route.Shortcuts): the
	// peer mines (area → server) edges from the provenance trails of plans
	// and results it handles, consults them ahead of catalog routes, and
	// absorbs repeatedly confirmed edges into its catalog as real index
	// registrations. Off by default — a peer without learning routes
	// byte-identically to earlier builds.
	LearnShortcuts bool
	// Keyring, when set alongside LearnShortcuts, verifies trail HMACs
	// before mining: an unverifiable trail teaches nothing. Nil trusts the
	// local deployment (the trails a peer mines already crossed its own
	// signing path).
	Keyring provenance.Keyring
	// Blobs, when non-nil, is the peer's content-addressed payload store
	// (internal/blobstore): collection snapshots and received payloads are
	// interned so identical subtrees are resident once, and plans sent to
	// neighbors whose transport reports a store (Transport.PeerCaps) carry
	// payload references instead of bytes both ends already hold (see
	// blob.go). Nil keeps the peer byte-identical to a build without the store.
	Blobs *blobstore.Store
}

// Peer is one network participant.
type Peer struct {
	addr string
	net  Transport
	ns   *namespace.Namespace
	cat  *catalog.Catalog
	proc *mqp.Processor
	cfg  Config

	// store holds the peer's collections: read-mostly immutable snapshots,
	// so concurrent plan steps fetch local data under a read lock (see
	// store.go). Per-step state (the processing clock, pull-delay
	// accounting) lives in an mqp.StepContext owned by the step, not on the
	// peer, so any number of steps run independently.
	store *collStore

	// lastAt remembers the virtual time of the most recent plan delivery
	// (atomic time.Duration). Driver-phase requests issued from this peer
	// (Harvest, ReplicateFrom) start from it.
	lastAt atomic.Int64

	// resMu guards the delivery-side records below. It is deliberately
	// separate from the data path: appending a result never blocks a worker
	// reading collections.
	resMu sync.Mutex
	// results holds the newest maxResults finished queries nobody has taken
	// yet, resultsDropped counting the rest.
	results        []Result
	resultsDropped int
	// stuck records terminal plan failures, identical entries once (message
	// duplication can redeliver the same doomed plan): the newest maxStuck of
	// them, stuckDropped counting the rest.
	stuck        []error
	stuckDropped int

	// rt is the worker-pool runtime, nil when Workers == 0 (synchronous
	// delivery).
	rt *runtime

	// shortcuts is the learned routing table, nil unless Config.LearnShortcuts.
	shortcuts *route.Shortcuts

	// blobs is the payload-by-reference runtime, nil unless Config.Blobs.
	blobs *blobState
}

// New creates a peer and registers it on the network.
func New(cfg Config) (*Peer, error) {
	if cfg.Addr == "" || cfg.Net == nil || cfg.NS == nil {
		return nil, fmt.Errorf("peer: config needs Addr, Net and NS")
	}
	p := &Peer{
		addr:  cfg.Addr,
		net:   cfg.Net,
		ns:    cfg.NS,
		cat:   catalog.New(cfg.NS, cfg.Addr),
		cfg:   cfg,
		store: newCollStore(),
	}
	pcfg := mqp.Config{
		Self:          cfg.Addr,
		Catalog:       p.cat,
		FetchLocal:    p.fetchLocal,
		FetchRemote:   p.fetchRemote,
		Policy:        cfg.Policy,
		PushSelect:    cfg.PushSelect,
		Key:           cfg.Key,
		SizeOf:        p.sizeOf,
		StatsFor:      p.statsFor,
		PruneStats:    cfg.PruneStats,
		PlanCacheSize: cfg.PlanCacheSize,
		// The prepared-plan cache invalidates on local data changes as well
		// as catalog changes: a published collection snapshot may change
		// what a cached step materialized.
		CacheGeneration: p.store.generation,
	}
	if cfg.LearnShortcuts {
		p.shortcuts = route.NewShortcuts()
		pcfg.Shortcuts = p.shortcuts
	}
	if cfg.Blobs != nil {
		p.blobs = newBlobState(cfg.Blobs)
		// Prepared-plan cache freight dedups against the store without
		// taking ownership (see blobstore.Canonicalize).
		pcfg.InternDoc = cfg.Blobs.Canonicalize
	}
	if cfg.Authoritative {
		pcfg.Authority = cfg.Area
	}
	proc, err := mqp.New(pcfg)
	if err != nil {
		return nil, err
	}
	p.proc = proc
	if cfg.Workers > 0 {
		p.rt = newRuntime(p, cfg.Workers, 4*cfg.Workers)
	}
	cfg.Net.Add(p)
	return p, nil
}

// Close stops the worker-pool runtime, if any: in-flight steps run to
// completion, then queued plans still waiting are rejected with partial
// results annotated "shutdown".
// A synchronous peer's Close is a no-op. Close is idempotent.
func (p *Peer) Close() {
	if p.rt != nil {
		p.rt.close()
	}
}

// Addr implements simnet.Peer.
func (p *Peer) Addr() string { return p.addr }

// Catalog exposes the peer's catalog for direct seeding in experiments.
func (p *Peer) Catalog() *catalog.Catalog { return p.cat }

// CacheStats reports the processor's prepared-plan cache counters (zero
// when the cache is disabled).
func (p *Peer) CacheStats() mqp.CacheStats { return p.proc.CacheStats() }

// Shortcuts exposes the learned routing table, nil unless the peer was
// configured with LearnShortcuts.
func (p *Peer) Shortcuts() *route.Shortcuts { return p.shortcuts }

func (p *Peer) virtualNow() time.Duration {
	return time.Duration(p.lastAt.Load())
}

// AddCollection installs (or replaces) a base collection, freezing its
// items (see Collection). The peer keeps a private snapshot: later mutation
// of the caller's struct does not affect what is served.
func (p *Peer) AddCollection(c Collection) {
	for _, it := range c.Items {
		it.Freeze()
	}
	cc := c
	if p.blobs != nil {
		// Dedup at rest: install canonical aliases, one resident copy per
		// distinct content across collections, replicas and received
		// payloads. The slice is fresh — the caller's is left alone.
		cc.Items = p.blobs.internCollection(c.PathExp, c.Items)
	}
	p.store.put(&cc)
}

// Collection returns the collection with the given path identifier.
func (p *Peer) Collection(pathExp string) (Collection, bool) {
	c := p.store.get(pathExp)
	if c == nil {
		return Collection{}, false
	}
	return *c, true
}

// SetItems replaces a collection's items (workload updates). The new items
// are frozen (see Collection), and published as a fresh snapshot — in-flight
// steps holding the previous snapshot finish against consistent data.
func (p *Peer) SetItems(pathExp string, items []*xmltree.Node) error {
	for _, it := range items {
		it.Freeze()
	}
	old := p.store.get(pathExp)
	if old == nil {
		return fmt.Errorf("peer %s: no collection %q", p.addr, pathExp)
	}
	cc := *old
	cc.Items = items
	if p.blobs != nil {
		cc.Items = p.blobs.internCollection(pathExp, items)
	}
	p.store.put(&cc)
	return nil
}

// Registration builds this peer's registration record, including exported
// collections and retained statements.
func (p *Peer) Registration(role catalog.Role) catalog.Registration {
	reg := catalog.Registration{
		Addr:          p.addr,
		Role:          role,
		Area:          p.cfg.Area,
		Authoritative: p.cfg.Authoritative,
	}
	for _, pe := range p.store.paths() {
		c := p.store.get(pe)
		if c == nil {
			continue
		}
		coll := catalog.Collection{Name: c.Name, PathExp: c.PathExp, Area: c.Area}
		// Publish attribute indices (§3.2) when stats are configured.
		if p.cfg.StatsHistPath != "" {
			coll.Annotations = p.statsAnnotations(c.Items)
			coll.Annotations[algebra.AnnotCard] = strconv.Itoa(len(c.Items))
		}
		reg.Collections = append(reg.Collections, coll)
	}
	return reg
}

// RegisterWith pushes this peer's registration (with the given role and
// statements) to the server at addr — the §3.3 push process. The peer also
// remembers addr as an index server in its own catalog (§3.2: peers cache
// index and meta-index servers they have used), so plans holding URNs this
// peer cannot bind have somewhere to go.
func (p *Peer) RegisterWith(addr string, role catalog.Role, stmts ...catalog.Statement) error {
	return p.registerWith(addr, role, 0, "", stmts)
}

// RegisterWithAt is RegisterWith for peers joining a live network: the
// registration message carries the given virtual time, so in scheduled
// mode it is delivered in order among the query traffic already in flight
// instead of "before" the run began.
func (p *Peer) RegisterWithAt(addr string, role catalog.Role, at time.Duration, stmts ...catalog.Statement) error {
	return p.registerWith(addr, role, at, "", stmts)
}

func (p *Peer) registerWith(addr string, role catalog.Role, at time.Duration, supersedes string, stmts []catalog.Statement) error {
	reg := p.Registration(role)
	reg.Statements = stmts
	reg.Supersedes = supersedes
	if err := p.net.SendFrame(&simnet.Message{From: p.addr, To: addr, Kind: KindRegister, At: at},
		catalog.MarshalRegistration(reg).Stage); err != nil {
		return err
	}
	return p.cat.Register(catalog.Registration{
		Addr: addr, Role: catalog.RoleIndex, Area: p.ns.Everything(),
	})
}

// DeregisterFrom tells the server at addr that this peer is leaving
// gracefully: the server drops every registration this peer pushed
// (catalog.Deregister) and invalidates any learned shortcuts pointing here —
// the graceful counterpart of the crash-and-supersede path. The local
// catalog also forgets addr as a cached index server.
func (p *Peer) DeregisterFrom(addr string, at time.Duration) error {
	if err := p.net.SendFrame(&simnet.Message{From: p.addr, To: addr, Kind: KindDeregister, At: at},
		xmltree.ElemAttrs(KindDeregister, xmltree.Attr{Name: "addr", Value: p.addr}).Stage); err != nil {
		return err
	}
	p.cat.Deregister(addr)
	return nil
}

// Harvest pulls the registration of the peer at addr into the local catalog
// — the §3.3 pull process ("index servers query their base servers for
// their data, to build more detailed indices").
func (p *Peer) Harvest(addr string) error {
	reply, _, err := p.net.Request(&simnet.Message{From: p.addr, To: addr, Kind: KindExport, At: p.virtualNow()},
		xmltree.Elem(KindExport).Stage)
	if err != nil {
		return err
	}
	reg, err := catalog.UnmarshalRegistration(p.ns, reply)
	if err != nil {
		return err
	}
	return p.cat.Register(reg)
}

// ReplicateFrom copies the collection at srcAddr/pathExp into this peer as a
// replica with the given staleness bound — the §4.3 delayed-replication
// model. The experiment driver calls it again to refresh the snapshot.
func (p *Peer) ReplicateFrom(srcAddr, pathExp string, as Collection, stalenessMin int) error {
	req := xmltree.ElemAttrs(KindFetch, xmltree.Attr{Name: "path", Value: pathExp})
	reply, at, err := p.net.Request(&simnet.Message{From: p.addr, To: srcAddr, Kind: KindFetch, At: p.virtualNow()}, req.Stage)
	if err != nil {
		return err
	}
	as.Items = reply.Elements()
	as.StalenessMin = stalenessMin
	as.RefreshedAt = at
	p.AddCollection(as)
	return nil
}

// ErrStaleReplica is wrapped by Promote when the replica's staleness bound
// is already exhausted at promotion time.
var ErrStaleReplica = errors.New("replica staleness bound exceeded")

// Promote turns a replica into the authoritative copy of its collection —
// the recovery step §4.3's delayed replication exists for. When the source
// base server crashes without restart, the replica re-registers with the
// upstream index carrying Supersedes=source, so the index forgets the dead
// copy and routes queries to this one; results served from the replica
// carry its staleness bound on the provenance trail exactly as replica
// fetches always did.
//
// The bound is a promise to queries, not just metadata: a replica whose
// snapshot is already older than StalenessMin at promotion time must not
// become authoritative. Promote refuses with ErrStaleReplica and records a
// stuck entry — an explicit "data existed but was too stale to serve"
// trace — instead of silently promoting data every later trail would
// misdescribe.
func (p *Peer) Promote(pathExp, source, upstream string, now time.Duration) error {
	c := p.store.get(pathExp)
	if c == nil {
		return fmt.Errorf("peer %s: promote: no collection %q", p.addr, pathExp)
	}
	if age := now - c.RefreshedAt; age > time.Duration(c.StalenessMin)*time.Minute {
		return p.noteStuck(fmt.Errorf("peer %s: promotion of replica %q (source %s) refused: snapshot age %v exceeds bound %dmin: %w",
			p.addr, pathExp, source, age, c.StalenessMin, ErrStaleReplica))
	}
	if at := int64(now); at > p.lastAt.Load() {
		p.lastAt.Store(at)
	}
	return p.registerWith(upstream, catalog.RoleBase, now, source, nil)
}

// Results returns a snapshot of the finished queries delivered to this
// peer. The returned slice is the caller's: appending results concurrently
// never aliases into it.
func (p *Peer) Results() []Result {
	p.resMu.Lock()
	defer p.resMu.Unlock()
	out := make([]Result, len(p.results))
	copy(out, p.results)
	return out
}

// TakeResult pops the oldest finished query, if any.
func (p *Peer) TakeResult() (Result, bool) {
	p.resMu.Lock()
	defer p.resMu.Unlock()
	if len(p.results) == 0 {
		return Result{}, false
	}
	r := p.results[0]
	// Copy the tail rather than re-slicing: the popped entry must not stay
	// reachable through the backing array, and a previous Results snapshot
	// must not see later appends through a shared array.
	p.results = append([]Result(nil), p.results[1:]...)
	return r, true
}

// maxResults bounds the results nobody has taken: a daemon is sent results
// (any neighbor can address a constant plan to it) but never takes them. No
// chaos, experiment or bench world comes near it.
const maxResults = 1024

// recordResult appends a finished query; past maxResults the oldest entry
// makes room.
func (p *Peer) recordResult(plan *algebra.Plan, at time.Duration, hops int) {
	p.mineTrail(plan, at)
	p.resMu.Lock()
	if len(p.results) == maxResults {
		p.results = p.results[:copy(p.results, p.results[1:])]
		p.resultsDropped++
	}
	p.results = append(p.results, Result{Plan: plan, At: at, Hops: hops,
		Partial: plan.PartialResult()})
	p.resMu.Unlock()
}

// absorbThreshold is the hit count at which a learned shortcut is absorbed
// into the catalog as an index registration, surviving shortcut expiry and
// this peer's restart-from-catalog.
const absorbThreshold = 2

// mineTrail extracts learned routing shortcuts from a plan's provenance
// trail — the tentpole of learned routing. The evidence is one kind: a
// verified ActionBind visit whose detail is an area URN, by a server other
// than this one, says "that server binds that resource area". A trail
// confirms each such (area, server) edge once, however many of its visits
// name it, so an edge's hit count is the number of trails that confirmed it.
//
// The edges this trail named whose hit count has reached absorbThreshold —
// two trails — are absorbed into the local catalog as real index
// registrations (catalog.AbsorbLearned), so the learning survives table
// expiry and outlives this peer's shortcut table — the paper's meta-index
// maintenance loop, automated. One pass, over the trail's own edges: the
// table is never walked, so what a trail costs is what it taught. An edge
// absorbed once and later narrowed by another registration is widened back
// by the next trail that confirms it. Mining is message-free: it reads
// trails already in hand, so enabling it never perturbs network traffic by
// itself.
func (p *Peer) mineTrail(plan *algebra.Plan, at time.Duration) {
	if p.shortcuts == nil {
		return
	}
	t, err := provenance.FromPlan(plan)
	if err != nil || t == nil || len(t.Visits) == 0 {
		return
	}
	if p.cfg.Keyring != nil {
		if _, err := t.Verify(p.cfg.Keyring); err != nil {
			return // an unverifiable trail teaches nothing
		}
	}
	gen := p.cat.Generation()
	taught := make([]route.ShortcutEntry, 0, 8)
	for _, v := range t.Visits {
		if v.Action != provenance.ActionBind || v.Server == p.addr || !namespace.IsAreaURN(v.Detail) {
			continue
		}
		if e := (route.ShortcutEntry{Area: v.Detail, Server: v.Server}); !slices.Contains(taught, e) {
			p.shortcuts.Learn(v.Detail, v.Server, gen, at)
			taught = append(taught, e)
		}
	}
	// AbsorbLearned is idempotent for already-covered edges, so repeated
	// confirmation does not churn the catalog generation (which would
	// needlessly invalidate the prepared-plan cache). An edge it refuses, an
	// area this namespace cannot place, stays a shortcut only.
	for _, e := range p.shortcuts.Confirmed(absorbThreshold, taught) {
		_, _ = p.cat.AbsorbLearned(e.Server, e.Area)
	}
}

// maxStuck bounds the stuck record, which must not grow with a daemon's
// uptime. No chaos or experiment world comes near it (5 on one peer at most).
const maxStuck = 1024

// StuckErrors returns errors from plans that could make no progress here:
// processor failures, plans with every next hop unreachable, results that
// could not be delivered, and forwarding-loop trips. Each such error message
// carries the plan id (quoted), so a harness can attribute every submitted
// plan to a result, a stuck error, or an injected network fault. Frames this
// peer refused (a malformed registration or deregistration, an unknown kind,
// a plan or result that does not unmarshal) are recorded here too.
func (p *Peer) StuckErrors() []error {
	p.resMu.Lock()
	defer p.resMu.Unlock()
	return append([]error(nil), p.stuck...)
}

// noteStuck records an error that terminated a plan at this peer, or a frame
// it refused. Every terminal-failure path routes through here; repeated
// identical entries (same plan, same failure — e.g. a duplicated delivery of
// a doomed plan) are recorded once, and past maxStuck the oldest entry makes
// room.
func (p *Peer) noteStuck(err error) error {
	p.resMu.Lock()
	defer p.resMu.Unlock()
	key := err.Error()
	for _, seen := range p.stuck {
		if seen.Error() == key {
			return err
		}
	}
	if len(p.stuck) == maxStuck {
		p.stuck = p.stuck[:copy(p.stuck, p.stuck[1:])]
		p.stuckDropped++
	}
	p.stuck = append(p.stuck, err)
	return err
}

// Submit sends a plan to the server at addr for evaluation. The plan's
// target should be this peer's address (or another peer expecting the
// result). The submission leaves at virtual time zero, whatever this peer
// has processed since.
func (p *Peer) Submit(addr string, plan *algebra.Plan) error {
	return p.net.SendFrame(&simnet.Message{From: p.addr, To: addr, Kind: KindMQP},
		p.frame(plan, addr))
}

// frame is the one door from a plan to the wire: it stages plan, bound for
// `to`, with the payloads `to` provably holds as references (blobRef). Plans,
// results and partials all leave through it.
func (p *Peer) frame(plan *algebra.Plan, to string) func(*xmltree.FrameEncoder) {
	return func(e *xmltree.FrameEncoder) { algebra.EncodeFrameRefs(plan, e, p.blobRef(to)) }
}

// --- simnet.Peer implementation ---------------------------------------

// Deliver implements simnet.Peer: handles plans in flight, results, and
// registration pushes. No transport hands what it returns to the sender, so
// whatever it refuses or strands is recorded here (noteStuck); over TCP the
// returned error is also the server's (wire.Server.Errors).
func (p *Peer) Deliver(net *simnet.Network, msg *simnet.Message) error {
	switch msg.Kind {
	case KindMQP:
		if p.rt != nil {
			return p.rt.enqueue(msg) // onto the worker pool
		}
		return p.processMQP(msg)
	case KindRegister:
		reg, err := catalog.UnmarshalRegistration(p.ns, msg.Body)
		if err != nil {
			return p.noteStuck(fmt.Errorf("peer %s: bad registration: %w", p.addr, err))
		}
		if reg.Supersedes != "" && p.shortcuts != nil {
			// A replacement registration (replica promotion) retires the
			// superseded server: shortcuts still pointing at it would route
			// plans to a corpse until they expired on their own.
			p.shortcuts.Invalidate(reg.Supersedes)
		}
		if err := p.cat.Register(reg); err != nil {
			return p.noteStuck(fmt.Errorf("peer %s: %w", p.addr, err))
		}
		return nil
	case KindDeregister:
		addr := msg.Body.AttrDefault("addr", "")
		if addr == "" {
			return p.noteStuck(fmt.Errorf("peer %s: deregister without addr", p.addr))
		}
		p.cat.Deregister(addr)
		if p.shortcuts != nil {
			p.shortcuts.Invalidate(addr)
		}
		return nil
	default:
		return p.noteStuck(fmt.Errorf("peer %s: unknown message kind %q", p.addr, msg.Kind))
	}
}

// arrive opens a delivered plan or result. Payload references are resolved
// before anything interprets the body (an unresolved <blob> under <data> would
// be mistaken for payload data); a failed resolution (fetch-on-miss exhausted,
// only possible under faults) ends the plan here, attributably. A result — a
// constant plan addressed to this peer, the one form a result takes on either
// transport — is recorded, and no plan comes back. A plan comes back
// with its envelope read and its operator tree unbuilt (Root nil): StepCtx
// builds it only when the plan cache does not know its bytes, and any other
// reader opens it first.
func (p *Peer) arrive(msg *simnet.Message) (*algebra.Plan, time.Duration, error) {
	body, fdelay, err := p.blobDecode(msg)
	if err != nil {
		return nil, 0, p.noteStuck(fmt.Errorf("peer %s: %s %q: %w",
			p.addr, msg.Kind, msg.Body.AttrDefault("id", ""), err))
	}
	plan, err := algebra.UnmarshalEnvelope(body)
	if err == nil && plan.Target == p.addr {
		err = plan.Open()
	}
	if err != nil {
		return nil, 0, p.badFrame(msg, err)
	}
	if plan.Target == p.addr && plan.IsConstant() {
		p.recordResult(plan, msg.At+fdelay, msg.Hops)
		return nil, 0, nil
	}
	return plan, fdelay, nil
}

// badFrame records and reports a plan or result whose frame does not
// unmarshal.
func (p *Peer) badFrame(msg *simnet.Message, err error) error {
	return p.noteStuck(fmt.Errorf("peer %s: bad %s: %w", p.addr, msg.Kind, err))
}

// processMQP runs one plan step and routes the outcome: a result home, the
// mutated plan onward, or a stuck record.
func (p *Peer) processMQP(msg *simnet.Message) error {
	plan, fdelay, err := p.arrive(msg)
	if plan == nil {
		return err
	}
	p.lastAt.Store(int64(msg.At))

	// Fetch-on-miss round trips charge the plan's clock like data pulls do.
	sc := mqp.StepContext{Now: msg.At, PullDelay: fdelay}
	out, err := p.proc.StepCtx(&sc, plan)
	if err != nil {
		if plan.Root == nil {
			return p.badFrame(msg, err) // the operator tree did not build
		}
		return p.noteStuck(fmt.Errorf("peer %s: %w", p.addr, err))
	}
	// Learn from the in-flight trail: the plan just crossed this peer, and
	// its trail names which servers bound which areas upstream.
	p.mineTrail(plan, msg.At)
	// Data pulls during the step charged their RTTs to the plan's clock.
	at := msg.At + sc.PullDelay

	if out.Done || out.Partial {
		result := plan
		if out.Partial {
			// No productive hop remains: instead of bouncing the plan into
			// the depth guard, return an explicit partial result carrying
			// what was already reduced (a sub-multiset of the full answer).
			result = route.Partial(plan)
			if out.PartialReason != "" {
				result.SetPartialReason(out.PartialReason)
			}
		}
		err := p.net.SendFrame(&simnet.Message{
			From: p.addr, To: result.Target, Kind: KindMQP, At: at, Hops: msg.Hops,
		}, p.frame(result, result.Target))
		if err != nil {
			// The answer exists but its owner is unreachable: surface the
			// plan as stuck here so it does not vanish silently.
			return p.noteStuck(fmt.Errorf("peer %s: result for plan %q undeliverable to %s: %w",
				p.addr, plan.ID, plan.Target, err))
		}
		return nil
	}
	// Fault tolerance (§1): try forwarding candidates in preference order;
	// an unreachable next hop falls through to the next candidate. Each
	// candidate gets its own frame: with a payload store, which payloads go
	// by reference depends on what that candidate was taught. Any other send
	// error — a forwarding loop, a frame past the link's limit (the same size
	// for every candidate) — ends the plan here.
	var lastErr error
	for _, hop := range out.NextHops {
		err := p.net.SendFrame(&simnet.Message{
			From: p.addr, To: hop, Kind: KindMQP, At: at, Hops: msg.Hops,
		}, p.frame(plan, hop))
		if err == nil {
			return nil
		}
		lastErr = err
		if _, unreachable := err.(simnet.ErrUnreachable); !unreachable {
			return p.noteStuck(fmt.Errorf("peer %s: plan %q: %w", p.addr, plan.ID, err))
		}
	}
	return p.noteStuck(fmt.Errorf("peer %s: all %d next hops unreachable for plan %q: %w",
		p.addr, len(out.NextHops), plan.ID, lastErr))
}

// rejectMQP turns a plan this peer cannot process (full admission queue,
// shutdown) into an explicit partial result sent back to the plan's target,
// annotated with the reason. Load shedding is not an error: the plan is
// accounted for — as a partial at its owner, or as a stuck record here if
// even the partial cannot be delivered.
func (p *Peer) rejectMQP(msg *simnet.Message, reason string) error {
	// A result costs nothing to accept: arrive records it, never sheds it.
	plan, _, err := p.arrive(msg)
	if plan == nil {
		return err
	}
	if err := plan.Open(); err != nil {
		return p.badFrame(msg, err)
	}
	res := route.Partial(plan)
	res.SetPartialReason(reason)
	if err := p.net.SendFrame(&simnet.Message{
		From: p.addr, To: res.Target, Kind: KindMQP, At: msg.At, Hops: msg.Hops,
	}, p.frame(res, res.Target)); err != nil {
		return p.noteStuck(fmt.Errorf("peer %s: %s partial for plan %q undeliverable to %s: %w",
			p.addr, reason, plan.ID, plan.Target, err))
	}
	return nil
}

// Serve implements simnet.Peer: data pulls, payload fetches and harvesting.
func (p *Peer) Serve(net *simnet.Network, req *simnet.Message) (*xmltree.Node, error) {
	switch req.Kind {
	case KindBlobFetch:
		return p.serveBlobFetch(req)
	case KindFetch:
		pathExp := req.Body.AttrDefault("path", "")
		items, stale, err := p.fetchLocal(nil, p.addr, pathExp)
		if err != nil {
			return nil, err
		}
		reply := xmltree.Elem("data")
		reply.SetAttr("staleness", strconv.Itoa(stale))
		for _, it := range items {
			// Collection items are frozen on install, so a fetch reply
			// aliases them instead of copying the snapshot per request.
			reply.Add(it.Share())
		}
		return reply, nil
	case KindExport:
		return catalog.MarshalRegistration(p.Registration(catalog.RoleBase)), nil
	default:
		return nil, fmt.Errorf("peer %s: unknown request kind %q", p.addr, req.Kind)
	}
}

// fetchLocal serves this peer's own collections from the current store
// snapshot. The StepContext is unused: local data costs no virtual time.
func (p *Peer) fetchLocal(_ *mqp.StepContext, _ string, pathExp string) ([]*xmltree.Node, int, error) {
	c := p.store.get(pathExp)
	if c == nil {
		return nil, 0, fmt.Errorf("peer %s: no collection %q", p.addr, pathExp)
	}
	return c.Items, c.StalenessMin, nil
}

// sizeOf reports a local collection's size, or -1 when unknown.
func (p *Peer) sizeOf(pathExp string) int {
	c := p.store.get(pathExp)
	if c == nil {
		return -1
	}
	return len(c.Items)
}

// statsFor publishes the §5.1 statistics annotations for a collection the
// policy declined to materialize.
func (p *Peer) statsFor(pathExp string) map[string]string {
	c := p.store.get(pathExp)
	if c == nil {
		return nil
	}
	return p.statsAnnotations(c.Items)
}

// statsAnnotations encodes the histogram and distinct counts of items, under
// the configured stats paths, as plan annotations.
func (p *Peer) statsAnnotations(items []*xmltree.Node) map[string]string {
	s := stats.Collect(items, p.cfg.StatsKeyPaths, p.cfg.StatsHistPath)
	out := map[string]string{}
	if len(s.Distinct) > 0 {
		out[algebra.AnnotDistinct] = stats.EncodeDistinct(s.Distinct)
	}
	if s.Hist != nil {
		out[algebra.AnnotHistogram] = s.Hist.Encode()
	}
	return out
}

// fetchRemote pulls a collection from another peer, charging the RTT to the
// in-flight plan's virtual time through its StepContext.
func (p *Peer) fetchRemote(sc *mqp.StepContext, addr, pathExp string) ([]*xmltree.Node, int, error) {
	req := xmltree.ElemAttrs(KindFetch, xmltree.Attr{Name: "path", Value: pathExp})
	start := sc.Now
	reply, at, err := p.net.Request(&simnet.Message{From: p.addr, To: addr, Kind: KindFetch, At: start}, req.Stage)
	if err != nil {
		return nil, 0, err
	}
	sc.PullDelay += at - start
	stale, err := strconv.Atoi(reply.AttrDefault("staleness", "0"))
	if err != nil {
		return nil, 0, fmt.Errorf("peer %s: bad staleness from %s: %w", p.addr, addr, err)
	}
	items := reply.Elements()
	if p.blobs != nil {
		for i, it := range items {
			// Pulled data dedups against residents without pinning: the
			// items live only as long as the plan that pulled them.
			items[i] = p.blobs.store.Canonicalize(it)
		}
	}
	return items, stale, nil
}

// QueryTrail extracts the provenance trail from a result.
func QueryTrail(r Result) (*provenance.Trail, error) {
	return provenance.FromPlan(r.Plan)
}
