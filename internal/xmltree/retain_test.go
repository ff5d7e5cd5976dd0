package xmltree

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"
	"weak"
)

// retainFrame builds a frame of n items from a buffer of its own, decodes it,
// and returns the document's last text leaf and a weak pointer to the buffer.
// The leading space keeps the frame out of the identical-frame cache.
func retainFrame(t *testing.T, tag string, n int) (*Node, weak.Pointer[byte]) {
	t.Helper()
	var b strings.Builder
	b.WriteString(" <items>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<item id="%s%d"><title>%s title %d</title><price>%d</price></item>`, tag, i, tag, i, i)
	}
	b.WriteString("</items>")
	buf := []byte(b.String())
	doc, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	leaf := doc
	for len(leaf.Children) > 0 {
		leaf = leaf.Children[len(leaf.Children)-1]
	}
	return leaf, weak.Make(unsafe.SliceData(buf))
}

// decodeABC decodes three frames back to back, as a forwarding peer does, and
// keeps one leaf of the first.
//
//go:noinline
func decodeABC(t *testing.T) (leafA *Node, a, b, c weak.Pointer[byte]) {
	leafA, a = retainFrame(t, "A", 100)
	_, b = retainFrame(t, "B", 150)
	_, c = retainFrame(t, "C", 70)
	return
}

// A decoded tree owns its slabs: one retained node keeps its own frame — tree
// and input buffer — and no frame decoded after it, whether through a shared
// slab or through what the pooled decoder still holds.
func TestRetainedNodePinsOnlyItsOwnFrame(t *testing.T) {
	leaf, a, b, c := decodeABC(t)
	for i := 0; i < 5 && (b.Value() != nil || c.Value() != nil); i++ {
		runtime.GC()
	}
	if b.Value() != nil {
		t.Error("frame B is still reachable through a leaf of frame A")
	}
	if c.Value() != nil {
		t.Error("frame C is still reachable through a leaf of frame A")
	}
	if a.Value() == nil {
		t.Error("frame A was collected under a live node that aliases it")
	}
	if leaf.Text != "99" {
		t.Errorf("retained leaf reads %q, want %q", leaf.Text, "99")
	}
	runtime.KeepAlive(leaf)
}

func stackBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// One hostile document — very wide, as deep as MaxDepth allows, or
// attribute-heavy — must not leave the pooled decoder holding the stacks it
// grew, and a decoder back in the pool must hold nothing of the frame it
// decoded: neither the entries it popped nor, when the frame fails
// mid-decode, the ones still live on every stack.
func TestPooledDecoderStacksBounded(t *testing.T) {
	const n = 100_000
	var attrs strings.Builder
	for i := 0; i < n/10; i++ {
		fmt.Fprintf(&attrs, ` a%d="v"`, i)
	}
	for name, doc := range map[string]string{
		"wide":   "<r>" + strings.Repeat("<a/>", n) + "</r>",
		"deep":   strings.Repeat("<a>", MaxDepth) + strings.Repeat("</a>", MaxDepth),
		"attrs":  "<r" + attrs.String() + "/>",
		"plain":  `<r><a b="1">x</a><a b="2">y</a></r>`,
		"sealed": "<data><i>" + strings.Repeat("<a/>", n) + "</i></data>",
		"failed": `<r k="u"><a k="1"><b/></a><a x="1"><b/><c y="2" z="3"`,
	} {
		d := decPool.Get().(*decoder)
		d.s, d.seal = doc, true
		d.sizeSlabs()
		if _, err := d.run(); (err != nil) != (name == "failed") {
			t.Fatalf("%s: err = %v", name, err)
		}
		d.release() // d is pooled again; nothing else decodes while we look
		for stack, bytes := range map[string]int{
			"open": stackBytes(d.open), "kidStk": stackBytes(d.kidStk),
			"attrStk": stackBytes(d.attrStk), "scratch": stackBytes(d.scratch),
		} {
			if bytes > scratchMax {
				t.Errorf("%s: pooled decoder keeps %d bytes of %s, cap is %d", name, bytes, stack, scratchMax)
			}
		}
		if d.nodeChunk != nil || d.kidChunk != nil || d.attrChunk != nil {
			t.Errorf("%s: pooled decoder keeps slabs of the tree it built", name)
		}
		for _, oe := range d.open[:cap(d.open)] {
			if oe != (openElem{}) {
				t.Fatalf("%s: pooled decoder's open stack still holds %+v", name, oe)
			}
		}
		for _, k := range d.kidStk[:cap(d.kidStk)] {
			if k != nil {
				t.Fatalf("%s: pooled decoder's child stack still holds a node", name)
			}
		}
		for _, a := range d.attrStk[:cap(d.attrStk)] {
			if a != (Attr{}) {
				t.Fatalf("%s: pooled decoder's attribute stack still holds %+v", name, a)
			}
		}
	}
}

// Documents that outgrow their first slabs decode like any other: mixed
// content has more nodes than '<', and a count past slabMax is clamped.
func TestDecodeSlabGrowth(t *testing.T) {
	checkDecodeAgreement(t, "<r>"+strings.Repeat("t<a x='1'/>", 10)+"u</r>")
	checkDecodeAgreement(t, "<r>"+strings.Repeat(`t<a x="1" y="2">v</a>`, 3*slabMax)+"</r>")
}
