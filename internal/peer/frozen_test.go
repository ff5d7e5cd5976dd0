package peer

import (
	"testing"

	"repro/internal/simnet"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// TestCatalogItemsServedFrozenWithoutClone pins the catalog snapshot fix:
// installing a collection freezes its items, and every fetch reply aliases
// them instead of cloning per request.
func TestCatalogItemsServedFrozenWithoutClone(t *testing.T) {
	net := simnet.New()
	ns := workload.GarageSaleNamespace()
	area := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
	src, err := New(Config{Addr: "s:1", Net: net, NS: ns, Area: area})
	if err != nil {
		t.Fatal(err)
	}
	docs := []*xmltree.Node{
		xmltree.MustParse(`<item><cd>A</cd></item>`),
		xmltree.MustParse(`<item><cd>B</cd></item>`),
	}
	src.AddCollection(Collection{Name: "cds", PathExp: "/d", Area: area, Items: docs})
	for _, d := range docs {
		if !d.Frozen() {
			t.Fatal("AddCollection must freeze items")
		}
	}

	req := xmltree.Elem("fetch")
	req.SetAttr("path", "/d")
	reply1, err := src.Serve(net, &simnet.Message{From: "c:1", To: "s:1", Kind: KindFetch, Body: req})
	if err != nil {
		t.Fatal(err)
	}
	reply2, err := src.Serve(net, &simnet.Message{From: "c:1", To: "s:1", Kind: KindFetch, Body: req})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range reply1.Elements() {
		if e != docs[i] {
			t.Fatal("fetch reply must alias the frozen collection items")
		}
		if reply2.Elements()[i] != docs[i] {
			t.Fatal("second fetch reply must alias the same items")
		}
	}
}
