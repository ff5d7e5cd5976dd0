package experiments

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/blobstore"
	"repro/internal/hierarchy"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/world"
	"repro/internal/xmltree"
)

// E16PayloadStore measures the content-addressed payload store
// (internal/blobstore) on the wire: the same repeated query is replayed
// against two identical worlds, one store-less and one where every peer
// carries a store. The first (cold) pass ships payloads inline either way —
// that pass is also the teaching pass; warm repeats ship the freight as
// <blob> references the receiver resolves from its own store, so warm
// KB/query must drop against the store-less world while the answers stay
// byte-identical.
func E16PayloadStore() (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "Content-addressed payload store: repeated-query wire cost, store off vs on",
		Columns: []string{"store", "pass", "KB/query", "by-ref msgs", "dedup ratio"},
	}

	const sellers, itemsPer, distinct, passes = 4, 24, 6, 3

	type phase struct {
		kb      []float64 // per pass
		results []string  // final pass, canonical forms
		byRef   uint64
		ratio   float64
	}
	run := func(storeOn bool) (phase, error) {
		var ph phase
		net, client, err := e16World(sellers, itemsPer, distinct, storeOn)
		if err != nil {
			return ph, err
		}
		tag := "off"
		if storeOn {
			tag = "on"
		}
		for pass := 1; pass <= passes; pass++ {
			net.ResetMetrics()
			plan := algebra.NewPlan(fmt.Sprintf("e16-%s-%d", tag, pass), "client:9020",
				algebra.Display(algebra.Select(algebra.MustParsePredicate("price < 10"),
					algebra.URN("urn:ForSale:Portland-CDs"))))
			_, got, err := world.Ask(client, "meta:9020", plan)
			if err != nil {
				return ph, fmt.Errorf("E16: store-%s pass %d: %w", tag, pass, err)
			}
			ph.results = ph.results[:0]
			for _, n := range got {
				ph.results = append(ph.results, n.String())
			}
			ph.kb = append(ph.kb, float64(net.Metrics().Bytes)/1024)
		}
		var resident, logical int64
		for _, addr := range net.Addrs() {
			p, ok := net.Peer(addr).(*peer.Peer)
			if !ok {
				continue
			}
			ph.byRef += p.BlobNetStats().ByRefSent
			if s := p.BlobStore(); s != nil {
				ss := s.Stats()
				resident += ss.Bytes
				logical += ss.LogicalBytes
			}
		}
		if resident > 0 {
			ph.ratio = float64(logical) / float64(resident)
		}
		return ph, nil
	}

	off, err := run(false)
	if err != nil {
		return nil, err
	}
	on, err := run(true)
	if err != nil {
		return nil, err
	}

	label := func(pass int) string {
		if pass == 0 {
			return "cold"
		}
		return fmt.Sprintf("warm %d", pass)
	}
	for i, kb := range off.kb {
		t.AddRow("off", label(i), kb, "-", "-")
	}
	for i, kb := range on.kb {
		t.AddRow("on", label(i), kb, fmt.Sprintf("%d", on.byRef), fmt.Sprintf("%.1f", on.ratio))
	}

	// The store must never change the answer…
	if strings.Join(off.results, "\n") != strings.Join(on.results, "\n") {
		return nil, fmt.Errorf("E16: store-on results diverged from store-off")
	}
	// …and the warm passes must pay for themselves.
	warmOff, warmOn := off.kb[passes-1], on.kb[passes-1]
	if on.byRef == 0 {
		return nil, fmt.Errorf("E16: no repeat freight went by reference")
	}
	if warmOn >= warmOff {
		return nil, fmt.Errorf("E16: warm store-on %.1f KB/query not below store-off %.1f", warmOn, warmOff)
	}
	if on.ratio <= 1 {
		return nil, fmt.Errorf("E16: no dedup at rest: ratio %.2f", on.ratio)
	}
	t.Note("warm repeats ship %.0f%% fewer KB/query with the store on (%.1f vs %.1f): taught payloads travel as references (35 bytes alone, 23 each further one in a run), and collections repeating the same documents hold one resident copy (%.1fx dedup)",
		(1-warmOn/warmOff)*100, warmOn, warmOff, on.ratio)
	return t, nil
}

// e16World is the dedup-heavy topology: one authoritative meta index,
// sellers whose collections repeat a small set of large payload documents
// (round-robin over `distinct`), and a querying client. Identical whether
// or not stores are attached.
func e16World(sellers, itemsPer, distinct int, storeOn bool) (*simnet.Network, *peer.Peer, error) {
	loc := hierarchy.New("Location")
	loc.MustAdd("USA/OR/Portland")
	merch := hierarchy.New("Merchandise")
	merch.MustAdd("Music/CDs")
	ns, err := namespace.New(loc, merch)
	if err != nil {
		return nil, nil, err
	}
	area := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
	blobs := func() *blobstore.Store {
		if storeOn {
			return blobstore.New()
		}
		return nil
	}
	payload := func(i int) string {
		return fmt.Sprintf("<sale><cd>Pressing %02d</cd><price>%d</price><desc>%s</desc></sale>",
			i, 3+i*2, strings.Repeat("A fine recording, archived with full provenance detail. ", 8))
	}

	w := world.New(ns)
	meta := w.Peer(peer.Config{Addr: "meta:9020", Area: area, Authoritative: true, PushSelect: true, Blobs: blobs()})
	for s := 0; s < sellers; s++ {
		items := make([]*xmltree.Node, 0, itemsPer)
		for i := 0; i < itemsPer; i++ {
			items = append(items, xmltree.MustParse(payload(i%distinct)))
		}
		w.Base(peer.Config{Addr: fmt.Sprintf("s%d:9020", s), Area: area, PushSelect: true, Blobs: blobs()},
			peer.Collection{Name: "cds", PathExp: fmt.Sprintf("/data[id=%d]", s+1), Area: area, Items: items},
			"meta:9020")
	}
	meta.Catalog().AddAlias("urn:ForSale:Portland-CDs", namespace.EncodeURN(area))

	client := w.Peer(peer.Config{Addr: "client:9020", Blobs: blobs()})
	w.Knows(client, "meta:9020", area)
	return w.Net, client, w.Err()
}
