// Package p2pq is the public API of the library: a facade over the mutant
// query plan engine, multi-hierarchic namespace catalogs, and simulated P2P
// network that the internal packages implement.
//
// A typical session:
//
//	ns := p2pq.NewNamespace(
//	    p2pq.Dimension("Location", "USA/OR/Portland", "USA/WA/Seattle"),
//	    p2pq.Dimension("Merchandise", "Music/CDs", "Furniture/Chairs"),
//	)
//	sys := p2pq.NewSystem(ns)
//	seller, _ := sys.AddPeer(p2pq.PeerOptions{
//	    Addr: "seller:9020", Area: "[USA/OR/Portland, Music/CDs]",
//	})
//	seller.Publish("cds", "/data[id=1]", "[USA/OR/Portland, Music/CDs]", items...)
//	meta, _ := sys.AddPeer(p2pq.PeerOptions{Addr: "meta:9020", Area: "[*, *]", Authoritative: true})
//	seller.JoinVia(meta.Addr())
//	client, _ := sys.AddPeer(p2pq.PeerOptions{Addr: "me:9020", Knows: []string{meta.Addr()}})
//
//	res, err := client.Query(
//	    p2pq.ScanArea("[USA/OR/Portland, Music/CDs]").
//	        Where("price < 10").
//	        Plan("q1", client.Addr()))
package p2pq

import (
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/hierarchy"
	"repro/internal/mqp"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/provenance"
	"repro/internal/route"
	"repro/internal/simnet"
	"repro/internal/world"
	"repro/internal/xmltree"
)

// Item is one XML data bundle. Use ParseItem or BuildItem to construct.
type Item = xmltree.Node

// ParseItem parses an XML item from its textual form.
func ParseItem(src string) (*Item, error) {
	return xmltree.ParseString(src)
}

// MustParseItem is ParseItem for fixtures; it panics on error.
func MustParseItem(src string) *Item {
	return xmltree.MustParse(src)
}

// BuildItem constructs an element with text-valued fields, e.g.
// BuildItem("sale", "cd", "Blue Train", "price", "8").
func BuildItem(name string, fieldValuePairs ...string) *Item {
	e := xmltree.Elem(name)
	for i := 0; i+1 < len(fieldValuePairs); i += 2 {
		e.Add(xmltree.ElemText(fieldValuePairs[i], fieldValuePairs[i+1]))
	}
	return e
}

// DimensionSpec declares one categorization hierarchy of a namespace.
type DimensionSpec struct {
	Name  string
	Paths []string
}

// Dimension builds a DimensionSpec.
func Dimension(name string, paths ...string) DimensionSpec {
	return DimensionSpec{Name: name, Paths: paths}
}

// Namespace wraps a multi-hierarchic namespace (§3.1 of the paper).
type Namespace struct {
	ns *namespace.Namespace
}

// NewNamespace builds a namespace from dimension specs.
func NewNamespace(dims ...DimensionSpec) (*Namespace, error) {
	hs := make([]*hierarchy.Hierarchy, len(dims))
	for i, d := range dims {
		h := hierarchy.New(d.Name)
		for _, p := range d.Paths {
			if _, err := h.AddPath(p); err != nil {
				return nil, fmt.Errorf("p2pq: dimension %s: %w", d.Name, err)
			}
		}
		hs[i] = h
	}
	ns, err := namespace.New(hs...)
	if err != nil {
		return nil, err
	}
	return &Namespace{ns: ns}, nil
}

// MustNewNamespace is NewNamespace for fixtures; it panics on error.
func MustNewNamespace(dims ...DimensionSpec) *Namespace {
	ns, err := NewNamespace(dims...)
	if err != nil {
		panic(err)
	}
	return ns
}

// AreaURN encodes an interest-area expression ("[USA/OR, *] + [France,
// Music]") as a URN string for use in queries and publications.
func (n *Namespace) AreaURN(area string) (string, error) {
	a, err := n.ns.ParseArea(area)
	if err != nil {
		return "", err
	}
	return namespace.EncodeURN(a), nil
}

// System is a simulated P2P deployment: a network plus its peers.
type System struct {
	ns  *Namespace
	net *simnet.Network
}

// NewSystem creates an empty deployment over the namespace.
func NewSystem(ns *Namespace) *System {
	return &System{ns: ns, net: simnet.New()}
}

// Network exposes the underlying simulated network (metrics, failures).
func (s *System) Network() *simnet.Network { return s.net }

// Metrics returns a snapshot of network counters.
func (s *System) Metrics() simnet.Metrics { return s.net.Metrics() }

// SetDown marks a peer unreachable (or back up).
func (s *System) SetDown(addr string, down bool) { s.net.SetDown(addr, down) }

// PeerOptions configures a peer.
type PeerOptions struct {
	// Addr is the peer's network address, e.g. "seller1:9020".
	Addr string
	// Area is the peer's interest area expression; empty means a pure
	// client.
	Area string
	// Authoritative marks the peer authoritative for its area (§3.3).
	Authoritative bool
	// Knows lists meta-index servers the peer is born knowing (§3.2:
	// discovered out-of-band), with their area defaulting to everything.
	Knows []string
	// AllowDataPull lets the peer fetch remote data instead of always
	// forwarding plans.
	AllowDataPull bool
	// SigningKey enables provenance recording.
	SigningKey []byte
}

// Peer wraps a network participant.
type Peer struct {
	p   *peer.Peer
	sys *System
}

// AddPeer creates a peer in the deployment.
func (s *System) AddPeer(opts PeerOptions) (*Peer, error) {
	var area namespace.Area
	if opts.Area != "" {
		a, err := s.ns.ns.ParseArea(opts.Area)
		if err != nil {
			return nil, err
		}
		area = a
	}
	var pol mqp.Policy
	if opts.AllowDataPull {
		pol = mqp.DefaultPolicy{}
	}
	p, err := peer.New(peer.Config{
		Addr:          opts.Addr,
		Net:           s.net,
		NS:            s.ns.ns,
		Area:          area,
		Authoritative: opts.Authoritative,
		Policy:        pol,
		PushSelect:    true,
		Key:           opts.SigningKey,
		StatsHistPath: "price",
	})
	if err != nil {
		return nil, err
	}
	for _, meta := range opts.Knows {
		if err := p.Catalog().Register(catalog.Registration{
			Addr: meta, Role: catalog.RoleMetaIndex,
			Area:          s.ns.ns.Everything(),
			Authoritative: true,
		}); err != nil {
			return nil, err
		}
	}
	return &Peer{p: p, sys: s}, nil
}

// Addr returns the peer's address.
func (p *Peer) Addr() string { return p.p.Addr() }

// Raw exposes the underlying peer for advanced use (statements, harvest,
// replication).
func (p *Peer) Raw() *peer.Peer { return p.p }

// Publish exports a collection under the given name, path identifier and
// interest-area expression.
//
// Published items are frozen: the peer serves them by reference (fetch
// replies, plan payloads and forwarded bodies all alias the same subtrees),
// so mutating an item after Publish panics. To change published data,
// build fresh items and Publish again — or Publish clones and keep the
// originals.
func (p *Peer) Publish(name, pathExp, area string, items ...*Item) error {
	a, err := p.sys.ns.ns.ParseArea(area)
	if err != nil {
		return err
	}
	p.p.AddCollection(peer.Collection{Name: name, PathExp: pathExp, Area: a, Items: items})
	return nil
}

// JoinVia registers the peer (as a base server) with the index or
// meta-index server at addr — the §3.3 join protocol.
func (p *Peer) JoinVia(addr string) error {
	return p.p.RegisterWith(addr, catalog.RoleBase)
}

// JoinViaAsIndex registers the peer as an index server with addr.
func (p *Peer) JoinViaAsIndex(addr string) error {
	return p.p.RegisterWith(addr, catalog.RoleIndex)
}

// Alias maps an opaque URN (e.g. "urn:ForSale:Portland-CDs") to replacement
// URNs or URLs in this peer's catalog; "http://host:port/pathExp" targets
// name a collection at a server directly.
func (p *Peer) Alias(urn string, targets ...string) {
	p.p.Catalog().AddAlias(urn, targets...)
}

// Declare retains an intensional statement (§4) at the server at addr, e.g.
// "base[USA/OR/Portland, *]@R:1 >= base[USA/OR/Portland, *]@S:1{30}".
func (p *Peer) Declare(addr, statement string) error {
	st, err := catalog.ParseStatement(p.sys.ns.ns, statement)
	if err != nil {
		return err
	}
	target := p.sys.net.Peer(addr)
	tp, ok := target.(*peer.Peer)
	if !ok {
		return fmt.Errorf("p2pq: %s is not a catalog-bearing peer", addr)
	}
	return tp.Catalog().AddStatement(st)
}

// QueryResult is a finished query.
//
// Items arrive frozen (immutable): they alias the wire payloads the result
// was delivered with, which may be shared with other plans and caches.
// Read, serialize and retain them freely; to derive mutated documents,
// work on an Item.Clone().
type QueryResult struct {
	Items   []*Item
	Latency time.Duration
	Hops    int
	Plan    *algebra.Plan
	// Partial marks an explicit partial result: the plan could no longer
	// travel productively (its visited-server memory exhausted every
	// candidate), so a server returned what was already reduced. Items are
	// then a sub-multiset of the complete answer.
	Partial bool
}

// QueryTrailOf extracts the signed provenance trail a result carried (§5.1).
func QueryTrailOf(res QueryResult) (*provenance.Trail, error) {
	return provenance.FromPlan(res.Plan)
}

// Query submits the plan starting at this peer and waits for the result
// (delivery is synchronous in the simulated network).
func (p *Peer) Query(plan *algebra.Plan) (QueryResult, error) {
	return p.QueryVia(p.Addr(), plan)
}

// QueryVia submits the plan to a specific first server. A plan that does not
// validate — one from a builder that recorded an error, say — is refused
// before it is sent.
func (p *Peer) QueryVia(addr string, plan *algebra.Plan) (QueryResult, error) {
	if plan.Target == "" {
		plan.Target = p.Addr()
	}
	if err := plan.Validate(); err != nil {
		return QueryResult{}, err
	}
	res, items, err := world.Ask(p.p, addr, plan)
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Items: items, Latency: res.At, Hops: res.Hops, Plan: res.Plan,
		Partial: res.Partial}, nil
}

// --- Plan builder --------------------------------------------------------

// Builder assembles query plans fluently.
type Builder struct {
	node *algebra.Node
	err  error
}

// ScanArea scans an interest-area expression (resolved through catalogs at
// run time). The expression is read without a namespace — the URN encoding
// is lexical (§3.4) — and checked against the system namespace by the
// catalogs that resolve it.
func ScanArea(area string) *Builder {
	a, err := namespace.ParseArea(area)
	if err != nil {
		return &Builder{err: err}
	}
	return &Builder{node: algebra.URN(namespace.EncodeURN(a))}
}

// ScanURN scans an opaque named resource, e.g. "urn:ForSale:Portland-CDs".
func ScanURN(urn string) *Builder {
	return &Builder{node: algebra.URN(urn)}
}

// Items embeds verbatim data in the plan (e.g. the client's favorite-song
// list in the paper's Fig. 3).
func Items(items ...*Item) *Builder {
	return &Builder{node: algebra.Data(items...)}
}

// Where filters with a predicate expression, e.g. "price < 10 and
// name contains 'chair'".
func (b *Builder) Where(pred string) *Builder {
	if b.err != nil {
		return b
	}
	p, err := algebra.ParsePredicate(pred)
	if err != nil {
		return &Builder{err: err}
	}
	return &Builder{node: algebra.Select(p, b.node)}
}

// Join equi-joins with another builder on leftKey = rightKey; output tuples
// carry components named leftName and rightName.
func (b *Builder) Join(other *Builder, leftKey, rightKey, leftName, rightName string) *Builder {
	if b.err != nil {
		return b
	}
	if other.err != nil {
		return &Builder{err: other.err}
	}
	return &Builder{node: algebra.JoinNamed(leftKey, rightKey, leftName, rightName, b.node, other.node)}
}

// UnionWith unions with other builders.
func (b *Builder) UnionWith(others ...*Builder) *Builder {
	if b.err != nil {
		return b
	}
	kids := []*algebra.Node{b.node}
	for _, o := range others {
		if o.err != nil {
			return &Builder{err: o.err}
		}
		kids = append(kids, o.node)
	}
	return &Builder{node: algebra.Union(kids...)}
}

// Project keeps only the named field paths, wrapping each output item in an
// element named as.
func (b *Builder) Project(as string, fields ...string) *Builder {
	if b.err != nil {
		return b
	}
	return &Builder{node: algebra.Project(as, fields, b.node)}
}

// Count reduces to a single count item.
func (b *Builder) Count() *Builder {
	if b.err != nil {
		return b
	}
	return &Builder{node: algebra.Count(b.node)}
}

// Top keeps the first n items ordered by the field.
func (b *Builder) Top(n int, orderBy string, desc bool) *Builder {
	if b.err != nil {
		return b
	}
	return &Builder{node: algebra.TopN(n, orderBy, desc, b.node)}
}

// Plan finalizes the builder into a mutant query plan with the given id and
// result target, retaining the original query for provenance checks.
func (b *Builder) Plan(id, target string) *algebra.Plan {
	if b.err != nil {
		// Surface builder errors at validation time: an invalid plan.
		return &algebra.Plan{ID: id, Target: target}
	}
	p := algebra.NewPlan(id, target, algebra.Display(b.node))
	p.RetainOriginal()
	return p
}

// Err returns any error accumulated while building.
func (b *Builder) Err() error { return b.err }

// WithPrefs attaches a §4.3 time budget and complete-vs-current preference
// to a plan.
func WithPrefs(p *algebra.Plan, budgetMS int, preferCurrent bool) *algebra.Plan {
	mqp.SetPrefs(p, mqp.Prefs{BudgetMS: budgetMS, PreferCurrent: preferCurrent})
	return p
}

// WithTransferPolicy restricts the plan to travel only through the listed
// servers (§5.2 "only let this MQP pass through servers on this list").
func WithTransferPolicy(p *algebra.Plan, servers ...string) *algebra.Plan {
	route.RestrictServers(p, servers...)
	return p
}

// WithBindingOrder adds the §5.2 ordering policy: the URN named later may
// only be bound once the URN named earlier has been fully bound.
func WithBindingOrder(p *algebra.Plan, later, earlier string) *algebra.Plan {
	mqp.BindAfter(p, later, earlier)
	return p
}
