// Quickstart: the paper's Fig. 3 query on a three-server world.
//
// Three peers — a meta-index server, a CD seller, and a track-listing
// service — answer "find CDs under $10 in Portland that contain one of my
// favorite songs", with the plan mutating as it travels. The client is a
// peer too: it builds the mutant query plan and submits it to the one
// server it knows, the meta-index (§3.2–3.3).
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/algebra"
	"repro/internal/hierarchy"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/world"
	"repro/internal/xmltree"
)

func main() {
	loc, merch := hierarchy.New("Location"), hierarchy.New("Merchandise")
	loc.MustAdd("USA/OR/Portland")
	loc.MustAdd("USA/WA/Seattle")
	merch.MustAdd("Music/CDs")
	merch.MustAdd("Furniture/Chairs")
	ns := namespace.MustNew(loc, merch)
	w := world.New(ns)
	everything := ns.MustParseArea("[*, *]")
	pdxCDs := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")

	meta := w.Peer(peer.Config{Addr: "meta:9020", Area: everything, Authoritative: true,
		PushSelect: true, Key: []byte("kM"), StatsHistPath: "price"})
	w.Base(peer.Config{Addr: "seller:9020", Area: pdxCDs,
		PushSelect: true, Key: []byte("kS"), StatsHistPath: "price"},
		peer.Collection{Name: "cds", PathExp: "/data[id=1]", Area: pdxCDs, Items: []*xmltree.Node{
			xmltree.MustParse("<sale><cd>Blue Train</cd><price>8</price></sale>"),
			xmltree.MustParse("<sale><cd>Giant Steps</cd><price>9</price></sale>"),
			xmltree.MustParse("<sale><cd>Kind of Blue</cd><price>15</price></sale>"),
		}}, "meta:9020")
	tracks := w.Peer(peer.Config{Addr: "tracks:9020",
		PushSelect: true, Key: []byte("kT"), StatsHistPath: "price"})
	client := w.Peer(peer.Config{Addr: "me:9020",
		PushSelect: true, Key: []byte("kC"), StatsHistPath: "price"})
	w.Knows(client, "meta:9020", everything)
	if err := w.Err(); err != nil {
		log.Fatal(err)
	}
	tracks.AddCollection(peer.Collection{Name: "listings", PathExp: "/data[id=9]", Area: everything,
		Items: []*xmltree.Node{
			xmltree.MustParse("<listing><cd>Blue Train</cd><song>Locomotion</song></listing>"),
			xmltree.MustParse("<listing><cd>Giant Steps</cd><song>Naima</song></listing>"),
			xmltree.MustParse("<listing><cd>Kind of Blue</cd><song>So What</song></listing>"),
		}})

	// The paper's opaque URNs resolve through the meta server's catalog.
	meta.Catalog().AddAlias("urn:CD:TrackListings", "http://tracks:9020/data[id=9]")

	// The area URN is lexical (§3.4): it is encoded without the namespace,
	// and the catalogs that resolve it check it against theirs.
	area, err := namespace.ParseArea("[USA/OR/Portland, Music/CDs]")
	if err != nil {
		log.Fatal(err)
	}
	forSale := algebra.Select(algebra.MustParsePredicate("price < 10"),
		algebra.URN(namespace.EncodeURN(area)))
	listings := algebra.URN("urn:CD:TrackListings")
	// Favorite songs travel inside the plan as verbatim XML (Fig. 3).
	favorites := algebra.Data(
		xmltree.MustParse("<song><title>Naima</title></song>"),
		xmltree.MustParse("<song><title>So What</title></song>"),
	)
	plan := algebra.NewPlan("quickstart", client.Addr(), algebra.Display(
		algebra.JoinNamed("title", "listing/song", "fav", "match", favorites,
			algebra.JoinNamed("cd", "cd", "sale", "listing", forSale, listings))))
	plan.RetainOriginal()

	res, items := w.Ask(client, meta.Addr(), plan)
	if err := w.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CDs under $10 carrying a favorite song (%d found, %v, %d hops):\n",
		len(items), res.At, res.Hops)
	for _, it := range items {
		fmt.Printf("  %s ($%s) — %s\n",
			it.Value("match/sale/cd"), it.Value("match/sale/price"), it.Value("fav/title"))
	}
	m := w.Net.Metrics()
	fmt.Printf("network: %d messages, %d bytes\n", m.Messages, m.Bytes)
}
