// Command mqpd runs a peer over real TCP sockets: internal/peer, the program
// the simulated experiments and the chaos harness run, on the TCP Transport
// instead of a simnet. Neighbors reach it over persistent multiplexed links
// (internal/wire); each frame carries one XML document, named for what it is:
// an <mqp> plan to process and forward (past a next hop that cannot be
// reached, to the next candidate) or, constant and addressed here, a result;
// a <registration> or <deregister> for the catalog; and the calls <fetch> (a
// collection's items) and <export> (this peer's registration); any other
// call, <subcats> among them, is refused as a kind the daemon does not know.
// Flags: -addr is the listen address, -alias binds a URN to a target
// (repeatable), and -collection serves a file under a path (repeatable). A
// -collection file is an XML document whose root's child elements are the
// items. The prepared-plan cache holds 128 plans.
//
// Example (three shells):
//
//	mqpd -addr 127.0.0.1:9020 \
//	     -alias urn:Demo:CDs=http://127.0.0.1:9021/data \
//	     -alias urn:Demo:Tracks=http://127.0.0.1:9022/data
//	mqpd -addr 127.0.0.1:9021 -collection /data=cds.xml
//	mqpd -addr 127.0.0.1:9022 -collection /data=tracks.xml
//	mqpquery -server 127.0.0.1:9020 -plan query.xml
//
// A running daemon logs one line per collection served, one `plan <id>` line
// per <mqp> it receives (a plan to process, or a result addressed here) and
// none per registration, and one line per error: a hostile frame, a broken
// link, a plan that ended here stuck. Where a plan went next, and what a hop
// bound, fetched and reduced, is in the result's trail, where it is signed.
package main

import (
	"flag"
	"log"
	"os"
	"strings"

	"repro/internal/peer"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// planCacheSize is the daemon's prepared-plan cache capacity, in entries.
const planCacheSize = 128

type aliasFlags []string

func (a *aliasFlags) String() string     { return strings.Join(*a, ",") }
func (a *aliasFlags) Set(v string) error { *a = append(*a, v); return nil }

func main() {
	addr := flag.String("addr", "127.0.0.1:9020", "listen address (host:port)")
	var aliases, collections aliasFlags
	flag.Var(&aliases, "alias", "URN alias mapping urn=target (repeatable)")
	flag.Var(&collections, "collection", "collection mapping pathExp=items.xml (repeatable)")
	flag.Parse()

	// A synchronous, forward-only peer: each link's frames are processed in
	// order on its own goroutine, and plans travel to the data.
	net := peer.NewTCP()
	p, err := peer.New(peer.Config{
		Addr: *addr, Net: net, NS: workload.GarageSaleNamespace(),
		PushSelect: true, Key: []byte("mqpd-" + *addr), PlanCacheSize: planCacheSize,
	})
	if err != nil {
		log.Fatalf("mqpd: %v", err)
	}
	for _, a := range aliases {
		parts := strings.SplitN(a, "=", 2)
		if len(parts) != 2 {
			log.Fatalf("mqpd: bad -alias %q (want urn=target)", a)
		}
		p.Catalog().AddAlias(parts[0], parts[1])
	}
	for _, c := range collections {
		parts := strings.SplitN(c, "=", 2)
		if len(parts) != 2 {
			log.Fatalf("mqpd: bad -collection %q (want pathExp=file.xml)", c)
		}
		buf, err := os.ReadFile(parts[1])
		if err != nil {
			log.Fatalf("mqpd: %v", err)
		}
		// The decoder's output is born frozen (and aliases buf, which nothing
		// writes again): items are aliased into plans, never cloned per request.
		doc, err := xmltree.Decode(buf)
		if err != nil {
			log.Fatalf("mqpd: parse %s: %v", parts[1], err)
		}
		items := doc.Elements()
		p.AddCollection(peer.Collection{Name: parts[0], PathExp: parts[0], Items: items})
		log.Printf("mqpd: serving %d items as %s%s", len(items), *addr, parts[0])
	}

	// The catalog and the store are complete before the first link is accepted.
	if err := net.Listen(*addr); err != nil {
		log.Fatalf("mqpd: %v", err)
	}
	log.Printf("mqpd: listening on %s", net.Addr())
	for err := range net.Errors() {
		log.Printf("mqpd: %v", err)
	}
}
