package xmltree

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// FindAll is the reference evaluator Path.First is checked against: it
// evaluates the path breadth-wise, one step over the whole current node set
// at a time, and returns every match in document order.
func (n *Node) FindAll(path string) []*Node {
	steps, ok := parseSteps(path)
	if !ok {
		return nil
	}
	current := []*Node{n}
	for _, st := range steps {
		var next []*Node
		for _, c := range current {
			next = append(next, st.apply(c)...)
		}
		current = next
		if len(current) == 0 {
			return nil
		}
	}
	return current
}

func (st pathStep) apply(n *Node) []*Node {
	if strings.HasPrefix(st.name, "@") {
		if v, ok := n.Attr(st.name[1:]); ok {
			return []*Node{TextNode(v)}
		}
		return nil
	}
	var out []*Node
	pos := 0
	for _, c := range n.Children {
		if c.IsText() {
			continue
		}
		if st.name != "*" && c.Name != st.name {
			continue
		}
		if st.attrName != "" {
			if v, ok := c.Attr(st.attrName); !ok || v != st.attrValue {
				continue
			}
		}
		pos++
		if st.index > 0 && pos != st.index {
			continue
		}
		out = append(out, c)
		if st.index > 0 {
			break
		}
	}
	return out
}

// checkFirst fails unless ParsePath(path).First(n) and Find are the
// reference's first match: the same node, or for attribute access a text
// node with the same value.
func checkFirst(t *testing.T, n *Node, path string) {
	t.Helper()
	var want *Node
	if all := n.FindAll(path); len(all) > 0 {
		want = all[0]
	}
	for _, got := range []*Node{ParsePath(path).First(n), n.Find(path)} {
		switch {
		case got == nil || want == nil:
			if got != want {
				t.Fatalf("path %q over %s: First = %v, FindAll[0] = %v", path, n, got, want)
			}
		case want.IsText():
			if !got.IsText() || got.Text != want.Text {
				t.Fatalf("path %q over %s: First = %v, FindAll[0] = text %q", path, n, got, want.Text)
			}
		case got != want:
			t.Fatalf("path %q over %s: First = %s, FindAll[0] = %s", path, n, got, want)
		}
	}
}

// TestKeyPathMatchesFind: the compiled path's first match is the reference's
// first match for every path form — plain child steps walked in place, "*",
// positional and attribute predicates, attribute access and malformed
// expressions — over a fixed item and over random trees.
func TestKeyPathMatchesFind(t *testing.T) {
	it := MustParse(`<tuple id="7">` +
		`<listing><cd>no song here</cd></listing>` +
		`<listing n="2"><cd>Blue <b>Train</b></cd><song>Locomotion</song><song>Naima</song></listing>` +
		`text<sale><cd>Giant Steps</cd></sale></tuple>`)
	for _, path := range []string{
		"listing", "listing/cd", "listing/song", "/listing/song", "sale/cd", "listing/cd/b",
		"missing", "listing/missing", "sale/song",
		"", "/", "listing//song", "listing/", "//listing", "listing[", "listing[0]", "[n=2]",
		"*", "*/song", "listing[2]/song", "listing[n=2]/cd", "listing/song[2]", "@id", "listing/@n",
		"listing[1]/song", "*[2]/*", "*[3]", "listing[@n='2']/song", "@id/x", "listing/@n/@n",
	} {
		checkFirst(t, it, path)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		n := randomTree(r, 4)
		for j := 0; j < 8; j++ {
			checkFirst(t, n, randomPath(r, n))
		}
	}
	p := ParsePath("listing/song")
	if allocs := testing.AllocsPerRun(100, func() { p.First(it) }); allocs != 0 {
		t.Errorf("First on a bare-name path allocates %.0f/op: not walked in place", allocs)
	}
}

// randomPath builds a path along a random branch of n, each step the
// child's name, "*", or a random name, sometimes with a positional or id
// predicate, and now and then ending in attribute access.
func randomPath(r *rand.Rand, n *Node) string {
	var steps []string
	for depth := 1 + r.Intn(4); depth > 0; depth-- {
		if r.Intn(6) == 0 {
			steps = append(steps, "@id")
			break
		}
		kids := n.Elements()
		step := []string{"item", "price", "name", "seller"}[r.Intn(4)]
		if len(kids) > 0 {
			c := kids[r.Intn(len(kids))]
			step, n = c.Name, c
			if id, ok := c.Attr("id"); ok && r.Intn(2) == 0 {
				step += "[id=" + id + "]"
			}
		}
		if r.Intn(4) == 0 {
			step = "*"
		}
		if r.Intn(4) == 0 && !strings.Contains(step, "[") {
			step += "[" + strconv.Itoa(1+r.Intn(3)) + "]"
		}
		steps = append(steps, step)
	}
	return strings.Join(steps, "/")
}

// FuzzPathFirst checks Path.First against the breadth-wise FindAll
// reference over any document and path expression. Under plain `go test`
// only the seeds run; `go test -fuzz=FuzzPathFirst` explores.
func FuzzPathFirst(f *testing.F) {
	doc := `<tuple id="7"><listing><cd>x</cd></listing>` +
		`<listing n="2"><cd>Blue</cd><song>Locomotion</song><song>Naima</song></listing>t<sale/></tuple>`
	for _, path := range []string{"listing/song", "*/song", "listing[2]/song", "listing[n=2]/cd",
		"listing/song[2]", "@id", "listing/@n", "/sale", "listing//song", "listing[0]", "*[3]"} {
		f.Add(doc, path)
	}
	f.Add(`<a><b><c/></b><b><d/></b></a>`, "b/d")
	f.Fuzz(func(t *testing.T, src, path string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		n, err := ParseString(src)
		if err != nil {
			return
		}
		checkFirst(t, n, path)
	})
}
