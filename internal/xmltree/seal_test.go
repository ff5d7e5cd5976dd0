package xmltree

import (
	"strings"
	"sync"
	"testing"
	"unsafe"
)

const sealFrame = `<mqp id="q"><plan><union><data><annotations><annot k="card" v="3"/></annotations>` +
	`<item id="1"><name>Blue Train</name><price>8</price><tags><t>jazz</t><t>hard bop</t></tags></item>` +
	`<item id="2"><name>A &amp; B</name><price>9</price></item>` +
	`<item id="3">lead<name>Giant Steps</name>tail</item>` +
	`</data><url href="s:1" path="/d"/></union></plan></mqp>`

func isSealed(n *Node) bool { return n.sealed.Load() }

// sealedData decodes sealFrame without the frame cache and returns its
// <data> element.
func sealedData(t *testing.T) *Node {
	t.Helper()
	doc, _, err := decode(sealFrame, true)
	if err != nil {
		t.Fatal(err)
	}
	return doc.Find("plan/union/data")
}

// The items of a <data> decode sealed: frozen, holding name, attributes,
// leading text and the clean span as their memo, and no children until read.
// Annotations are not payload and decode eagerly; so does an item whose span
// is not clean (an entity), since it has no memo to build from.
func TestSealedItemShape(t *testing.T) {
	data := sealedData(t)
	kids := data.Children
	if len(kids) != 4 || kids[0].Name != "annotations" || isSealed(kids[0]) || len(kids[0].Children) != 1 {
		t.Fatalf("annotations: want one eager block first, got %d kids", len(kids))
	}
	item := kids[1]
	if !isSealed(item) || item.Children != nil || !item.Frozen() || item.AttrDefault("id", "") != "1" {
		t.Fatalf("first item not sealed: sealed=%v children=%d", isSealed(item), len(item.Children))
	}
	if memo, ok := item.FrozenSerialization(); !ok || item.ByteSize() != len(memo) {
		t.Fatalf("sealed item's memo missing or missized: %q", memo)
	}
	if dirty := kids[2]; isSealed(dirty) || dirty.Child("name").Text != "A & B" {
		t.Fatal("an item with an entity must decode eagerly")
	}
	if mixed := kids[3]; !isSealed(mixed) || mixed.Text != "lead" {
		t.Fatalf("mixed item: sealed=%v Text=%q, want sealed with leading text only", isSealed(mixed), mixed.Text)
	}
	if got := kids[3].InnerText(); got != "leadGiant Stepstail" {
		t.Fatalf("mixed item InnerText = %q", got)
	}
	eager, _, err := decode(sealFrame, false)
	if err != nil {
		t.Fatal(err)
	}
	if eager.Find("plan/union/data/item").Children == nil {
		t.Fatal("the eager decode sealed an item")
	}
	if !Equal(eager.Find("plan/union/data"), data) || eager.String() != sealFrame {
		t.Fatal("sealed items, built, differ from the eager decode")
	}
}

// The items of a join's <data> input decode eagerly: the join reads every
// one of them. Elsewhere in the same frame (a result beside the retained
// original join) items are sealed.
func TestJoinInputDecodesEagerly(t *testing.T) {
	frame := `<mqp><plan><display><union><join leftkey="cd" rightkey="cd"><data><sale><cd>A</cd><price>3</price></sale></data>` +
		`<url href="s:1" path="/d"/></join><data><tuple><cd>B</cd><song>T</song></tuple></data></union></display></plan>` +
		`<original><join leftkey="cd" rightkey="cd"><urn name="u:1"/><urn name="u:2"/></join></original></mqp>`
	doc, _, err := decode(frame, true)
	if err != nil {
		t.Fatal(err)
	}
	if sale := doc.Find("plan/display/union/join/data/sale"); sale == nil || isSealed(sale) || sale.Children == nil {
		t.Fatal("a join input was sealed")
	}
	if tuple := doc.Find("plan/display/union/data/tuple"); tuple == nil || !isSealed(tuple) {
		t.Fatal("an item beside the join was not sealed")
	}
}

// An item that fails its clean check is scanned sealed, then again eagerly,
// and nothing inside that second scan is sealed: however deep <data> and
// items nest, each byte is scanned at most twice. The entity at the bottom
// counts the scans, once per expansion (muts); if every nested item were
// sealed and rewound in turn, it would be expanded once per level.
func TestNestedDirtyItemsScanTwice(t *testing.T) {
	const levels = (MaxDepth - 2) / 2
	frame := "<r>" + strings.Repeat("<data><i>", levels) + "<x>a&amp;b</x>" +
		strings.Repeat("</i></data>", levels) + "</r>"
	run := func(seal bool) (*Node, int) {
		d := newDecoder().(*decoder)
		d.s, d.seal = frame, seal
		d.sizeSlabs()
		root, err := d.run()
		if err != nil {
			t.Fatal(err)
		}
		return root, d.muts
	}
	eager, eagerMuts := run(false)
	sealed, sealedMuts := run(true)
	if sealedMuts > 2*eagerMuts {
		t.Fatalf("sealing decode expanded the entity %d times, the eager one %d", sealedMuts, eagerMuts)
	}
	if !Equal(eager, sealed) || sealed.String() != eager.String() {
		t.Fatal("sealed decode of nested dirty items differs from the eager one")
	}
}

// Goroutines reading one sealed item through every kind of reader at once
// build it once, race-free (run under -race).
func TestSealedConcurrentReads(t *testing.T) {
	for round := 0; round < 20; round++ {
		item := sealedData(t).Child("item")
		if !isSealed(item) {
			t.Fatal("item not sealed")
		}
		price := ParsePath("price")
		var wg sync.WaitGroup
		errs := make(chan string, 16)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g % 4 {
				case 0:
					if n := item.Find("tags/t[2]"); n == nil || n.Text != "hard bop" {
						errs <- "Find"
					}
				case 1:
					if price.Value(item) != "8" {
						errs <- "Path.Value"
					}
				case 2:
					if len(item.ChildrenNamed("tags")) != 1 {
						errs <- "ChildrenNamed"
					}
				case 3:
					if c := item.Clone(); c.String() != item.String() {
						errs <- "Clone"
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("%s read a concurrently built item wrongly", e)
		}
	}
}

// A sealed node is built at most once: a second read returns the same
// children and allocates nothing.
func TestSealedBuiltOnce(t *testing.T) {
	item := sealedData(t).Child("item")
	first := item.Kids()
	if isSealed(item) || len(first) != 3 {
		t.Fatalf("first read built %d children, sealed=%v", len(first), isSealed(item))
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if kids := item.Kids(); &kids[0] != &first[0] {
			t.Fatal("second read built the children again")
		}
	}); allocs != 0 {
		t.Fatalf("reading a built item allocates %.0f/op", allocs)
	}
}

// FreezeSizes freezes with sizes and no serialization memo; the bytes are
// the ones Freeze would memoize.
func TestFreezeSizes(t *testing.T) {
	a, b := freezeFixture(), freezeFixture()
	a.Freeze()
	b.FreezeSizes()
	if !b.Frozen() || b.ByteSize() != a.ByteSize() || b.String() != a.String() {
		t.Fatalf("FreezeSizes: frozen=%v size %d, want %d", b.Frozen(), b.ByteSize(), a.ByteSize())
	}
	if _, ok := b.FrozenSerialization(); ok {
		t.Fatal("FreezeSizes memoized the serialization")
	}
}

// Sealing costs a node no space: the seal flag lives in padding the node
// already had (fourteen words on a 64-bit platform).
func TestNodeSizeUnchanged(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Node{}); got != 112 {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d, want 112", got)
	}
}
