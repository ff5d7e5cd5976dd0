// Package world wires simulated deployments: one network, one namespace and
// the peers built on them. The experiments, the chaos harness and the
// examples all join, register and ask their peers through it, so how that is
// done is written once.
//
// A World records the first error a wiring call meets. Every later wiring
// call then does nothing (a peer it would have built is nil, and no nil peer
// is dereferenced), so a builder checks Err once, after wiring, instead of
// after every call. peer.Config stays the only configuration: a World adds
// none of its own.
package world

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/xmltree"
)

// World is one deployment on a fresh simulated network.
type World struct {
	Net   *simnet.Network
	NS    *namespace.Namespace
	Peers map[string]*peer.Peer // keyed by address
	err   error
}

// New starts an empty world over ns.
func New(ns *namespace.Namespace) *World {
	return &World{Net: simnet.New(), NS: ns, Peers: map[string]*peer.Peer{}}
}

// Err is the first error a wiring call met, nil while there was none.
func (w *World) Err() error { return w.err }

// Peer builds a peer from cfg on the world's network and namespace, which
// override cfg's own. It is nil once the world has failed.
func (w *World) Peer(cfg peer.Config) *peer.Peer {
	if w.err != nil {
		return nil
	}
	cfg.Net, cfg.NS = w.Net, w.NS
	p, err := peer.New(cfg)
	if err != nil {
		w.err = err
		return nil
	}
	w.Peers[cfg.Addr] = p
	return p
}

// Base builds a base server holding c and registers it with up.
func (w *World) Base(cfg peer.Config, c peer.Collection, up string) *peer.Peer {
	p := w.Peer(cfg)
	if p != nil {
		p.AddCollection(c)
	}
	w.Join(p, up, catalog.RoleBase)
	return p
}

// Join pushes p's registration in the given role to the server at up (the
// §3.3 join).
func (w *World) Join(p *peer.Peer, up string, role catalog.Role) {
	if w.err == nil {
		w.err = p.RegisterWith(up, role)
	}
}

// Knows gives p the authoritative meta-index server meta for area, as a
// peer born knowing its meta-index (§3.2: discovered out of band).
func (w *World) Knows(p *peer.Peer, meta string, area namespace.Area) {
	if w.err == nil {
		w.err = p.Catalog().Register(catalog.Registration{
			Addr: meta, Role: catalog.RoleMetaIndex, Area: area, Authoritative: true,
		})
	}
}

// Ask submits plan from client to first and returns the result and its
// items. Delivery is synchronous, so the result is there when Submit
// returns. Both are zero once the world has failed.
func (w *World) Ask(client *peer.Peer, first string, plan *algebra.Plan) (peer.Result, []*xmltree.Node) {
	if w.err != nil {
		return peer.Result{}, nil
	}
	res, items, err := Ask(client, first, plan)
	w.err = err
	return res, items
}

// Ask is World.Ask for a caller that wants each query's error on its own.
func Ask(client *peer.Peer, first string, plan *algebra.Plan) (peer.Result, []*xmltree.Node, error) {
	if err := client.Submit(first, plan); err != nil {
		return peer.Result{}, nil, err
	}
	res, ok := client.TakeResult()
	if !ok {
		return peer.Result{}, nil, fmt.Errorf("world: no result delivered for plan %q", plan.ID)
	}
	items, err := res.Plan.Results()
	return res, items, err
}
