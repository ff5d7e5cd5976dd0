package engine

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/xmltree"
)

// TestReduceFreezesResultsAndAliasesFrozenInputs pins the reduction side of
// the ownership model: result items come out frozen (later hops alias them).
// A root join's tuples are born frozen and sealed and reference no input
// node; a join another operator reads (here a selection over it) and a
// projection alias the fields of frozen inputs instead of cloning them.
func TestReduceFreezesResultsAndAliasesFrozenInputs(t *testing.T) {
	l := xmltree.MustParse(`<item><cd>Abbey Road</cd><price>12</price></item>`).Freeze()
	r := xmltree.MustParse(`<item><cd>Abbey Road</cd><seller>s1</seller></item>`).Freeze()
	join := algebra.JoinNamed("cd", "cd", "sale", "listing",
		algebra.Data(l), algebra.Data(r))

	out, err := Reduce(join)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Docs) != 1 {
		t.Fatalf("join produced %d tuples, want 1", len(out.Docs))
	}
	tuple := out.Docs[0]
	memo, ok := tuple.FrozenSerialization()
	if !tuple.Frozen() || !ok || tuple.Children != nil {
		t.Fatal("a root join's tuple must be born frozen and sealed")
	}
	if want := `<tuple><sale><cd>Abbey Road</cd><price>12</price></sale><listing><cd>Abbey Road</cd><seller>s1</seller></listing></tuple>`; memo != want {
		t.Fatalf("tuple = %s, want %s", memo, want)
	}
	inputs := map[*xmltree.Node]bool{}
	for _, it := range []*xmltree.Node{l, r} {
		walk(it, func(n *xmltree.Node) { inputs[n] = true })
	}
	walk(tuple, func(n *xmltree.Node) {
		if inputs[n] {
			t.Fatalf("the root join's tuple references input node <%s>", n.Name)
		}
	})

	// A join read by a selection builds its tuples; their components alias
	// the frozen inputs' fields.
	nested := algebra.Select(algebra.MustParsePredicate("sale/price < 20"), join)
	out, err = Reduce(nested)
	if err != nil || len(out.Docs) != 1 {
		t.Fatalf("select over join = %d tuples, %v", len(out.Docs), err)
	}
	if !out.Docs[0].Frozen() {
		t.Fatal("Reduce must freeze result items")
	}
	sale := out.Docs[0].Child("sale")
	if sale == nil || sale.Children[0] != l.Children[0] {
		t.Fatal("an inner join's component must alias frozen input fields")
	}

	// Selection passes frozen inputs through untouched.
	sel := algebra.Select(algebra.MustParsePredicate("price < 20"), algebra.Data(l))
	out, err = Reduce(sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Docs) != 1 || out.Docs[0] != l {
		t.Fatal("selection must pass the frozen item through by reference")
	}

	// Projection aliases the projected fields of frozen items.
	proj := algebra.Project("out", []string{"price"}, algebra.Data(l))
	out, err = Reduce(proj)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Docs) != 1 || out.Docs[0].Child("price") != l.Child("price") {
		t.Fatal("projection must alias frozen input fields")
	}
}

// TestJoinComponentAppendCopies: a tuple's component must never be a way to
// write into the join's inputs. An Evaluated (inner) join's component aliases
// a frozen item's child list, so an Add on it must copy instead of writing
// past the list's end; a reduced (root) join's tuple is sealed and frozen, so
// its built component is changed through Clone, and Add on the clone must
// leave the input alone too. Two frozen sources: a decoded frame, whose child
// lists are carved from the decoder's slab, and two items carved by hand from
// one backing array without the cap the decoder puts on its lists, so that
// the first item's list runs on into the second's slots. Sale A joins two
// listings, so two tuples hold its content.
func TestJoinComponentAppendCopies(t *testing.T) {
	const frame = `<items><sale><cd>A</cd><price>8</price></sale><sale><cd>B</cd><price>9</price></sale></items>`
	decoded, err := xmltree.DecodeString(frame)
	if err != nil {
		t.Fatal(err)
	}
	slab := make([]*xmltree.Node, 4)
	carved := make([]*xmltree.Node, 2)
	for i, cd := range []string{"A", "B"} {
		fields := slab[2*i : 2*i+2]
		fields[0], fields[1] = xmltree.ElemText("cd", cd), xmltree.ElemText("price", "8")
		carved[i] = (&xmltree.Node{Name: "sale", Children: fields}).Freeze()
	}
	listings := algebra.Data(items(
		`<listing><cd>A</cd><song>a1</song></listing>`,
		`<listing><cd>A</cd><song>a2</song></listing>`,
		`<listing><cd>B</cd><song>b1</song></listing>`,
	)...)
	evaluate := func(join *algebra.Node) ([]*xmltree.Node, error) { return Evaluate(join) }
	reduce := func(join *algebra.Node) ([]*xmltree.Node, error) {
		out, err := Reduce(join)
		if err != nil {
			return nil, err
		}
		return out.Docs, nil
	}
	for name, sales := range map[string][]*xmltree.Node{"decoded": decoded.Children, "carved": carved} {
		for path, eval := range map[string]func(*algebra.Node) ([]*xmltree.Node, error){"inner": evaluate, "root": reduce} {
			name := name + "/" + path
			before := make([]string, len(sales))
			kids := make([][]*xmltree.Node, len(sales))
			for i, s := range sales {
				before[i] = s.String()
				kids[i] = append([]*xmltree.Node(nil), s.Children[:cap(s.Children)]...)
			}
			tuples, err := eval(algebra.JoinNamed("cd", "cd", "sale", "listing",
				algebra.Data(sales...), listings))
			if err != nil || len(tuples) != 3 {
				t.Fatalf("%s: join = %d tuples, %v", name, len(tuples), err)
			}
			twin := tuples[1].Child("sale").String()
			got := tuples[0].Child("sale")
			if got.Frozen() {
				got = got.Clone()
			}
			got.Add(xmltree.ElemText("extra", "x"))
			if len(got.Children) != 3 || got.Children[2].Name != "extra" {
				t.Fatalf("%s: Add did not land: %s", name, got)
			}
			if got := tuples[1].Child("sale").String(); got != twin {
				t.Fatalf("%s: Add on one tuple changed its twin: %s, was %s", name, got, twin)
			}
			for i, s := range sales {
				if s.String() != before[i] {
					t.Fatalf("%s: Add changed source item %d: %s", name, i, s)
				}
				for j, k := range s.Children[:cap(s.Children)] {
					if k != kids[i][j] {
						t.Fatalf("%s: Add wrote slot %d of item %d's child list", name, j, i)
					}
				}
			}
		}
	}
}

// walk calls f on every node of the tree under n, n included.
func walk(n *xmltree.Node, f func(*xmltree.Node)) {
	f(n)
	for _, c := range n.Kids() {
		walk(c, f)
	}
}
