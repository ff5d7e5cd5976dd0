package algebra

import (
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/xmltree"
)

// cowPlan returns a plan the way a hop owns one — decoded from the wire —
// so its payload documents and extra sections arrive frozen.
func cowPlan(t *testing.T) *Plan {
	t.Helper()
	p := NewPlan("cow", "c:1", Display(Union(
		Data(
			xmltree.MustParse(`<item><cd>Abbey Road</cd><price>12</price></item>`),
			xmltree.MustParse(`<item><cd>Kind of Blue</cd><price>9</price></item>`),
		),
		URL("far:9020", "/d"))))
	p.RetainOriginal()
	p.Extra = map[string]*xmltree.Node{
		"provenance": xmltree.MustParse(`<provenance><visit server="s1" action="forward" at="0" sig="x"/></provenance>`),
	}
	back, err := DecodeString(EncodeString(p))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func dataNode(t *testing.T, root *Node) *Node {
	t.Helper()
	var d *Node
	root.Walk(func(m *Node) bool {
		if m.Kind == KindData && d == nil {
			d = m
		}
		return true
	})
	if d == nil {
		t.Fatal("no data node in plan")
	}
	return d
}

// TestDecodedPayloadsArriveFrozen pins the receive-side ownership rule:
// Unmarshal freezes payload documents and extra sections in place.
func TestDecodedPayloadsArriveFrozen(t *testing.T) {
	p := cowPlan(t)
	for _, d := range dataNode(t, p.Root).Docs {
		if !d.Frozen() {
			t.Fatal("decoded payload doc not frozen")
		}
	}
	if !p.Extra["provenance"].Frozen() {
		t.Fatal("decoded extra section not frozen")
	}
}

// TestPlanCloneSharesFrozenPayloads verifies Clone and RetainOriginal are
// copy-on-write over frozen freight: operator nodes are copied, payload
// documents and extra sections are aliased.
func TestPlanCloneSharesFrozenPayloads(t *testing.T) {
	p := cowPlan(t)
	cp := p.Clone()
	pd, cd := dataNode(t, p.Root), dataNode(t, cp.Root)
	if pd == cd {
		t.Fatal("operator nodes must be copied")
	}
	for i := range pd.Docs {
		if pd.Docs[i] != cd.Docs[i] {
			t.Fatal("frozen payload doc must be aliased, not copied")
		}
	}
	if p.Extra["provenance"] != cp.Extra["provenance"] {
		t.Fatal("frozen extra section must be aliased")
	}
	if EncodeString(cp) != EncodeString(p) {
		t.Fatal("clone serializes differently")
	}
	p.RetainOriginal()
	for i, d := range dataNode(t, p.Original).Docs {
		if d != pd.Docs[i] {
			t.Fatal("RetainOriginal must alias frozen payload docs")
		}
	}
}

// TestMarshalAliasesFrozenDocs verifies the wire encoder stages a frozen
// payload from its memoized serialization: the frame holds the memo's bytes,
// copied, so the staged frame keeps nothing of the plan alive. A mutable
// payload, by contrast, is walked live and left mutable.
func TestMarshalAliasesFrozenDocs(t *testing.T) {
	big := xmltree.Elem("item", xmltree.ElemText("notes", strings.Repeat("liner notes ", 64))).Freeze()
	memo, ok := big.FrozenSerialization()
	if !ok || len(memo) <= 512 {
		t.Fatalf("fixture payload is %d bytes, memoized %v; want a large frozen one", len(memo), ok)
	}
	enc := xmltree.GetFrameEncoder()
	defer enc.Release()
	EncodeFrame(NewPlan("big", "c:1", Display(Data(big))), enc)
	frame := enc.Bytes()
	at := strings.Index(string(frame), memo)
	if at < 0 {
		t.Fatal("EncodeFrame must stage a frozen payload's memoized serialization")
	}
	if unsafe.SliceData(frame[at:]) == unsafe.StringData(memo) {
		t.Fatal("the staged frame aliases the payload's memo instead of holding a copy")
	}

	mutable := xmltree.MustParse(`<item/>`)
	enc.Reset()
	EncodeFrame(NewPlan("m", "c:1", Display(Data(mutable))), enc)
	if mutable.Frozen() || !strings.Contains(enc.String(), "<item/>") {
		t.Fatal("EncodeFrame must write a mutable payload live and leave it mutable")
	}
}

// TestSharedFrozenPlanConcurrentUse exercises the aliasing-safety contract
// under the race detector (make ci): one decoded plan is concurrently
// cloned, marshaled, sized and re-encoded; all of that is read-only on the
// shared frozen payloads.
func TestSharedFrozenPlanConcurrentUse(t *testing.T) {
	p := cowPlan(t)
	want := EncodeString(p)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				cp := p.Clone()
				if EncodeString(cp) != want {
					panic("clone serialization mismatch")
				}
				if Marshal(p).ByteSize() != len(want) {
					panic("marshal size mismatch")
				}
				if WireSize(cp) != len(want) {
					panic("wire size mismatch")
				}
			}
		}()
	}
	wg.Wait()
}
