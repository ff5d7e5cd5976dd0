// Package baseline implements the two comparison architectures the paper
// names in §1 — the "Napster" (hybrid) approach with a centralized index,
// and the "Gnutella" (pure) approach with bounded-horizon query broadcast —
// plus a coordinator-style distributed execution helper. The E4/E5
// experiments measure these against hierarchic-catalog MQP routing.
package baseline

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/namespace"
	"repro/internal/simnet"
	"repro/internal/xmltree"
)

// Message kinds used by the baselines.
const (
	KindLookup   = "central-lookup" // client → central index
	KindFlood    = "flood"          // Gnutella broadcast
	KindFloodHit = "flood-hit"      // peer → query origin
)

// DataRef names a collection at a base server.
type DataRef struct {
	Addr    string
	PathExp string
}

// CentralIndex is the Napster-style central server: every base server
// registers its collections here, and every search is a single
// request/response against it (§1: "a centralized group of servers indexes
// filenames, and all queries must go through them").
type CentralIndex struct {
	addr string

	mu      sync.Mutex
	entries []centralEntry
}

type centralEntry struct {
	ref  DataRef
	area namespace.Area
}

// NewCentralIndex creates a central index and registers it on the network.
func NewCentralIndex(net *simnet.Network, addr string) *CentralIndex {
	c := &CentralIndex{addr: addr}
	net.Add(c)
	return c
}

// Addr implements simnet.Peer.
func (c *CentralIndex) Addr() string { return c.addr }

// Register adds a collection to the central index (performed out-of-band,
// as Napster clients did at connect time).
func (c *CentralIndex) Register(ref DataRef, area namespace.Area) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = append(c.entries, centralEntry{ref: ref, area: area})
}

// Deliver implements simnet.Peer; the central index is request/response
// only.
func (c *CentralIndex) Deliver(_ *simnet.Network, msg *simnet.Message) error {
	return fmt.Errorf("central index %s: unexpected one-way message %q", c.addr, msg.Kind)
}

// Serve implements simnet.Peer: answers lookup requests with the matching
// collection references.
func (c *CentralIndex) Serve(_ *simnet.Network, req *simnet.Message) (*xmltree.Node, error) {
	if req.Kind != KindLookup {
		return nil, fmt.Errorf("central index %s: unknown request %q", c.addr, req.Kind)
	}
	urn := req.Body.AttrDefault("urn", "")
	area, err := namespace.DecodeURN(urn)
	if err != nil {
		return nil, fmt.Errorf("central index %s: %w", c.addr, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	reply := xmltree.Elem("servers")
	for _, e := range c.entries {
		if e.area.Overlaps(area) {
			se := xmltree.Elem("server")
			se.SetAttr("addr", e.ref.Addr)
			se.SetAttr("path", e.ref.PathExp)
			reply.Add(se)
		}
	}
	return reply, nil
}

// Lookup performs a client search against the central index, returning the
// matching references in deterministic order.
func Lookup(net *simnet.Network, clientAddr, centralAddr string, area namespace.Area) ([]DataRef, error) {
	req := xmltree.ElemAttrs("lookup", xmltree.Attr{Name: "urn", Value: namespace.EncodeURN(area)})
	reply, _, err := net.Request(&simnet.Message{From: clientAddr, To: centralAddr, Kind: KindLookup}, req.Stage)
	if err != nil {
		return nil, err
	}
	var out []DataRef
	for _, se := range reply.ChildrenNamed("server") {
		out = append(out, DataRef{
			Addr:    se.AttrDefault("addr", ""),
			PathExp: se.AttrDefault("path", ""),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out, nil
}

// FloodPeer is a Gnutella-style peer: it holds collections described only by
// interest area, knows a set of neighbors, and re-broadcasts queries until
// the horizon (TTL) runs out (§1). It is deliberately catalog-free.
type FloodPeer struct {
	addr      string
	neighbors []string

	mu    sync.Mutex
	colls []floodColl
	seen  map[string]bool
	hits  map[string][]DataRef // by query id, collected at the origin
}

type floodColl struct {
	ref  DataRef
	area namespace.Area
}

// NewFloodPeer creates a flooding peer and registers it on the network.
func NewFloodPeer(net *simnet.Network, addr string) *FloodPeer {
	p := &FloodPeer{addr: addr, seen: map[string]bool{}, hits: map[string][]DataRef{}}
	net.Add(p)
	return p
}

// Addr implements simnet.Peer.
func (p *FloodPeer) Addr() string { return p.addr }

// SetNeighbors replaces the peer's neighbor list.
func (p *FloodPeer) SetNeighbors(addrs ...string) {
	p.neighbors = append([]string(nil), addrs...)
}

// AddCollection exposes a collection for flooding search.
func (p *FloodPeer) AddCollection(ref DataRef, area namespace.Area) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.colls = append(p.colls, floodColl{ref: ref, area: area})
}

// Deliver implements simnet.Peer: handles flood broadcasts and hit replies.
func (p *FloodPeer) Deliver(net *simnet.Network, msg *simnet.Message) error {
	switch msg.Kind {
	case KindFlood:
		return p.handleFlood(net, msg)
	case KindFloodHit:
		p.mu.Lock()
		defer p.mu.Unlock()
		id := msg.Body.AttrDefault("id", "")
		for _, se := range msg.Body.ChildrenNamed("server") {
			p.hits[id] = append(p.hits[id], DataRef{
				Addr:    se.AttrDefault("addr", ""),
				PathExp: se.AttrDefault("path", ""),
			})
		}
		return nil
	default:
		return fmt.Errorf("flood peer %s: unknown message %q", p.addr, msg.Kind)
	}
}

func (p *FloodPeer) handleFlood(net *simnet.Network, msg *simnet.Message) error {
	id := msg.Body.AttrDefault("id", "")
	origin := msg.Body.AttrDefault("origin", "")
	ttl, err := strconv.Atoi(msg.Body.AttrDefault("ttl", "0"))
	if err != nil {
		return fmt.Errorf("flood peer %s: bad ttl: %w", p.addr, err)
	}
	area, err := namespace.DecodeURN(msg.Body.AttrDefault("urn", ""))
	if err != nil {
		return fmt.Errorf("flood peer %s: %w", p.addr, err)
	}

	p.mu.Lock()
	if p.seen[id] {
		p.mu.Unlock()
		return nil
	}
	p.seen[id] = true
	var matches []DataRef
	for _, c := range p.colls {
		if c.area.Overlaps(area) {
			matches = append(matches, c.ref)
		}
	}
	p.mu.Unlock()

	if len(matches) > 0 && origin != p.addr {
		hit := xmltree.Elem("hit")
		hit.SetAttr("id", id)
		for _, m := range matches {
			se := xmltree.Elem("server")
			se.SetAttr("addr", m.Addr)
			se.SetAttr("path", m.PathExp)
			hit.Add(se)
		}
		if err := net.Send(&simnet.Message{From: p.addr, To: origin, Kind: KindFloodHit, Body: hit, At: msg.At}); err != nil {
			return err
		}
	}
	if ttl <= 0 {
		return nil
	}
	fwd := msg.Body.Clone()
	fwd.SetAttr("ttl", strconv.Itoa(ttl-1))
	for _, nb := range p.neighbors {
		if nb == msg.From {
			continue
		}
		// Unreachable neighbors are skipped, as in real Gnutella.
		if err := net.Send(&simnet.Message{From: p.addr, To: nb, Kind: KindFlood, Body: fwd, At: msg.At}); err != nil {
			if _, ok := err.(simnet.ErrUnreachable); ok {
				continue
			}
			return err
		}
	}
	return nil
}

// Flood starts a search from this peer with the given horizon and returns
// the distinct matching references discovered. Matches held by the origin
// itself are included directly.
func (p *FloodPeer) Flood(net *simnet.Network, id string, area namespace.Area, horizon int) ([]DataRef, error) {
	body := xmltree.Elem("flood")
	body.SetAttr("id", id)
	body.SetAttr("origin", p.addr)
	body.SetAttr("urn", namespace.EncodeURN(area))
	body.SetAttr("ttl", strconv.Itoa(horizon))

	// Local matches first.
	p.mu.Lock()
	p.seen[id] = true
	for _, c := range p.colls {
		if c.area.Overlaps(area) {
			p.hits[id] = append(p.hits[id], c.ref)
		}
	}
	p.mu.Unlock()

	if horizon > 0 {
		fwd := body.Clone()
		fwd.SetAttr("ttl", strconv.Itoa(horizon-1))
		for _, nb := range p.neighbors {
			if err := net.Send(&simnet.Message{From: p.addr, To: nb, Kind: KindFlood, Body: fwd}); err != nil {
				if _, ok := err.(simnet.ErrUnreachable); ok {
					continue
				}
				return nil, err
			}
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	seen := map[string]bool{}
	var out []DataRef
	for _, h := range p.hits[id] {
		key := h.Addr + "|" + h.PathExp
		if !seen[key] {
			seen[key] = true
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out, nil
}

// Serve implements simnet.Peer; flooding peers have no request/response
// protocol.
func (p *FloodPeer) Serve(_ *simnet.Network, req *simnet.Message) (*xmltree.Node, error) {
	return nil, fmt.Errorf("flood peer %s: unknown request %q", p.addr, req.Kind)
}
