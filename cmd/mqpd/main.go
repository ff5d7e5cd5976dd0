// Command mqpd runs a mutant-query-plan server over real TCP sockets: the
// same processor that powers the simulated experiments, wired to the
// network. Peers reach it over persistent multiplexed links (internal/wire);
// each frame on a link carries one XML document: an <mqp> plan to process and
// forward, or a <registration> to accept into the catalog.
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
// Collections are XML files whose root's child elements are the items.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/mqp"
	"repro/internal/route"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

type aliasFlags []string

func (a *aliasFlags) String() string     { return strings.Join(*a, ",") }
func (a *aliasFlags) Set(v string) error { *a = append(*a, v); return nil }

func main() {
	addr := flag.String("addr", "127.0.0.1:9020", "listen address (host:port)")
	planCache := flag.Int("plan-cache", 128, "prepared-plan cache entries (0 disables)")
	var aliases, collections aliasFlags
	flag.Var(&aliases, "alias", "URN alias mapping urn=target (repeatable)")
	flag.Var(&collections, "collection", "collection mapping pathExp=items.xml (repeatable)")
	flag.Parse()

	ns := workload.GarageSaleNamespace()
	cat := catalog.New(ns, *addr)
	store := map[string][]*xmltree.Node{}

	for _, a := range aliases {
		parts := strings.SplitN(a, "=", 2)
		if len(parts) != 2 {
			log.Fatalf("mqpd: bad -alias %q (want urn=target)", a)
		}
		cat.AddAlias(parts[0], parts[1])
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
		// Served items are immutable: the decoder's output is born frozen
		// (and aliases buf, which nothing writes again), so items are
		// aliased into plans and fetch replies instead of cloned per request.
		doc, err := xmltree.Decode(buf)
		if err != nil {
			log.Fatalf("mqpd: parse %s: %v", parts[1], err)
		}
		items := doc.Elements()
		store[parts[0]] = items
		log.Printf("mqpd: serving %d items as %s%s", len(items), *addr, parts[0])
	}

	proc, err := mqp.New(mqp.Config{
		Self:    *addr,
		Catalog: cat,
		FetchLocal: func(_ *mqp.StepContext, _ string, pathExp string) ([]*xmltree.Node, int, error) {
			items, ok := store[pathExp]
			if !ok {
				return nil, 0, fmt.Errorf("no collection %q", pathExp)
			}
			return items, 0, nil
		},
		PushSelect: true,
		Key:        []byte("mqpd-" + *addr),
		// The file-backed store is fixed after startup; the catalog's own
		// generation (registrations, aliases) drives cache invalidation.
		PlanCacheSize: *planCache,
	})
	if err != nil {
		log.Fatalf("mqpd: %v", err)
	}

	// Forwarded plans ride persistent multiplexed links: one connection per
	// downstream peer, one vectored write per plan, frozen payload sections
	// streamed straight from their memoized serializations.
	pool := wire.NewLinkPool()
	defer pool.Close()

	srv, err := wire.Listen(*addr, func(doc *xmltree.Node) (*xmltree.Node, error) {
		switch doc.Name {
		case "mqp":
			plan, err := algebra.Unmarshal(doc)
			if err != nil {
				return nil, fmt.Errorf("mqpd: bad plan: %w", err)
			}
			out, err := proc.Step(plan)
			if err != nil {
				return nil, err
			}
			dest := out.NextHop
			if out.Done {
				dest = plan.Target
			}
			if out.Partial {
				// No productive hop remains: deliver an explicit partial
				// result instead of forwarding into a routing loop.
				dest = plan.Target
				plan = route.Partial(plan)
			}
			log.Printf("mqpd: plan %s: bound=%d fetched=%d reduced=%d -> %s",
				plan.ID, out.Bound, out.Fetched, out.Reduced, dest)
			return nil, pool.SendFrame(dest, func(e *xmltree.FrameEncoder) {
				algebra.EncodeFrame(plan, e)
			})
		case "registration":
			reg, err := catalog.UnmarshalRegistration(ns, doc)
			if err != nil {
				return nil, fmt.Errorf("mqpd: bad registration: %w", err)
			}
			log.Printf("mqpd: registered %s (%s, %s)", reg.Addr, reg.Role, reg.Area)
			return nil, cat.Register(reg)
		default:
			return nil, fmt.Errorf("mqpd: unknown document <%s>", doc.Name)
		}
	})
	if err != nil {
		log.Fatalf("mqpd: %v", err)
	}
	log.Printf("mqpd: listening on %s", srv.Addr())
	for err := range srv.Errors() {
		log.Printf("mqpd: %v", err)
	}
}
