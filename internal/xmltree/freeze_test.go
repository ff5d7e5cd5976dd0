package xmltree

import (
	"sync"
	"testing"
)

// freezeFixture builds a small document exercising attrs, text, escaping
// and nesting.
func freezeFixture() *Node {
	item := Elem("item",
		ElemText("title", `Track <live> & "remastered"`),
		ElemText("price", "10.99"))
	item.SetAttr("zip", "97201")
	item.SetAttr("condition", "good>fair")
	return Elem("data", item, ElemText("note", "a & b"))
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: want panic on frozen node, got none", what)
		}
	}()
	fn()
}

func TestFreezeMemoizesSizeAndSerialization(t *testing.T) {
	n := freezeFixture()
	want := n.String()
	n.Freeze()
	if !n.Frozen() {
		t.Fatal("Freeze did not mark the node frozen")
	}
	if !n.Children[0].Frozen() {
		t.Fatal("Freeze did not reach descendants")
	}
	if got := n.ByteSize(); got != len(want) {
		t.Fatalf("frozen ByteSize = %d, want %d", got, len(want))
	}
	if got, ok := n.FrozenSerialization(); !ok || got != want {
		t.Fatalf("FrozenSerialization = %q, %v; want %q", got, ok, want)
	}
	if got := n.String(); got != want {
		t.Fatalf("frozen String = %q, want %q", got, want)
	}
}

func TestFrozenMutationPanics(t *testing.T) {
	n := freezeFixture().Freeze()
	mustPanic(t, "SetAttr on root", func() { n.SetAttr("x", "1") })
	mustPanic(t, "Add on root", func() { n.Add(Elem("new")) })
	mustPanic(t, "SetAttr on descendant", func() { n.Children[0].SetAttr("x", "1") })
	mustPanic(t, "Add on descendant", func() { n.Children[0].Add(TextNode("t")) })
}

func TestShareAliasesFrozenCopiesMutable(t *testing.T) {
	m := freezeFixture()
	if m.Share() == m {
		t.Fatal("Share of a mutable node must copy")
	}
	if !Equal(m.Share(), m) {
		t.Fatal("Share copy is not structurally equal")
	}
	f := freezeFixture().Freeze()
	if f.Share() != f {
		t.Fatal("Share of a frozen node must alias")
	}
}

func TestCloneOfFrozenIsMutable(t *testing.T) {
	f := freezeFixture().Freeze()
	before := f.String()
	c := f.Clone()
	if c.Frozen() || c.Children[0].Frozen() {
		t.Fatal("Clone of a frozen tree must be mutable throughout")
	}
	c.SetAttr("added", "1") // must not panic
	c.Children[0].Add(ElemText("seller", "x&co"))
	if got := c.ByteSize(); got != len(c.String()) {
		t.Fatalf("mutated clone ByteSize = %d, want %d", got, len(c.String()))
	}
	if f.String() != before {
		t.Fatal("mutating the clone changed the frozen original")
	}
}

func TestCloneShallowCOWAppend(t *testing.T) {
	f := Elem("provenance", Elem("visit"), Elem("visit")).Freeze()
	cp := f.CloneShallow()
	if cp.Frozen() {
		t.Fatal("CloneShallow must be mutable")
	}
	for i := range f.Children {
		if cp.Children[i] != f.Children[i] {
			t.Fatal("CloneShallow must alias children")
		}
	}
	cp.Add(Elem("visit")) // must not panic
	cp.Freeze()
	if len(f.Children) != 2 || len(cp.Children) != 3 {
		t.Fatalf("children = %d/%d, want 2/3", len(f.Children), len(cp.Children))
	}
	if cp.ByteSize() != len(cp.String()) {
		t.Fatal("COW-extended element size mismatch")
	}
	if f.String() != `<provenance><visit/><visit/></provenance>` {
		t.Fatalf("original changed: %s", f.String())
	}
}

// TestFrozenConcurrentReads exercises the advertised contract that a frozen
// subtree needs no synchronization: String, a FrameEncoder's staging,
// ByteSize and Share from many goroutines. Meaningful under -race (make ci).
func TestFrozenConcurrentReads(t *testing.T) {
	f := freezeFixture().Freeze()
	want := f.ByteSize()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if f.ByteSize() != want {
					panic("size mismatch")
				}
				if len(f.String()) != want {
					panic("string mismatch")
				}
				enc := GetFrameEncoder()
				enc.Node(f)
				if enc.Len() != want {
					panic("staged size mismatch")
				}
				enc.Release()
				// A fresh document aliasing the frozen subtree sizes itself
				// by reading the frozen memos.
				doc := Elem("wrap", f.Share())
				if doc.ByteSize() != want+len("<wrap>")+len("</wrap>") {
					panic("wrapped size mismatch")
				}
			}
		}()
	}
	wg.Wait()
}
