package catalog

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/namespace"
)

// Tests for the learned-routing catalog surface: Deregister (graceful
// leave) and AbsorbLearned (confirmed shortcuts becoming real index
// registrations).

func TestDeregisterDropsAllOfAddr(t *testing.T) {
	ns := testNS()
	c := New(ns, "me:1")
	for _, reg := range []Registration{
		baseReg(ns, "a:1", "[USA/OR/Portland, Music/CDs]"),
		{Addr: "a:1", Role: RoleIndex, Area: ns.MustParseArea("[USA/OR, *]")},
		baseReg(ns, "b:1", "[USA/WA/Seattle, Music/CDs]"),
	} {
		if err := c.Register(reg); err != nil {
			t.Fatal(err)
		}
	}
	gen := c.Generation()
	if n := c.Deregister("a:1"); n != 2 {
		t.Fatalf("deregister removed %d, want 2", n)
	}
	if c.Generation() == gen {
		t.Fatal("deregister did not bump the catalog generation")
	}
	for _, r := range c.Registrations() {
		if r.Addr == "a:1" {
			t.Fatalf("a:1 survived deregistration: %+v", r)
		}
	}
	// The survivor still binds.
	b, err := c.Resolve(areaURN(ns, "[USA/WA/Seattle, Music/CDs]"))
	if err != nil || !b.Known() {
		t.Fatalf("survivor lost its binding: %+v, %v", b, err)
	}
	// Unknown/empty addresses are no-ops.
	if n := c.Deregister("ghost:1"); n != 0 {
		t.Fatalf("deregister(ghost) removed %d", n)
	}
	if n := c.Deregister(""); n != 0 {
		t.Fatalf("deregister(\"\") removed %d", n)
	}
}

func TestAbsorbLearnedCreatesAndGrowsIndexReg(t *testing.T) {
	ns := testNS()
	c := New(ns, "me:1")
	or := areaURN(ns, "[USA/OR, Music/CDs]")
	wa := areaURN(ns, "[USA/WA, Music/CDs]")

	if g, err := c.AbsorbLearned("idx:1", or); err != nil || g != c.Generation() {
		t.Fatalf("absorb = generation %d (catalog at %d), %v", g, c.Generation(), err)
	}
	regs := c.Registrations()
	if len(regs) != 1 || regs[0].Addr != "idx:1" || regs[0].Role != RoleIndex {
		t.Fatalf("absorbed reg = %+v", regs)
	}
	// Idempotent for covered areas: no generation churn on re-confirmation.
	gen := c.Generation()
	if g, err := c.AbsorbLearned("idx:1", or); err != nil || g != 0 {
		t.Fatalf("re-absorbing a covered area = generation %d, %v; want 0 (nothing changed)", g, err)
	}
	if c.Generation() != gen {
		t.Fatal("re-absorbing a covered area churned the generation")
	}
	// A genuinely new area widens the same registration.
	if g, err := c.AbsorbLearned("idx:1", wa); err != nil || g != gen+1 {
		t.Fatalf("widening = generation %d, %v; want %d", g, err, gen+1)
	}
	regs = c.Registrations()
	if len(regs) != 1 {
		t.Fatalf("widening split into %d registrations", len(regs))
	}
	if !regs[0].Area.Covers(ns.MustParseArea("[USA/WA, Music/CDs]")) ||
		!regs[0].Area.Covers(ns.MustParseArea("[USA/OR, Music/CDs]")) {
		t.Fatalf("widened area does not cover both cells: %v", regs[0].Area)
	}
	// The absorbed edge is a live route for overlapping URNs.
	b, err := c.Resolve(areaURN(ns, "[USA/OR/Portland, Music/CDs]"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range b.Routes {
		if r == "idx:1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("absorbed index not in routes: %+v", b)
	}
}

func TestAbsorbLearnedRejectsSelfAndGarbage(t *testing.T) {
	ns := testNS()
	c := New(ns, "me:1")
	if _, err := c.AbsorbLearned("me:1", areaURN(ns, "[USA, *]")); err == nil {
		t.Fatal("absorbed a shortcut to self")
	}
	if _, err := c.AbsorbLearned("", areaURN(ns, "[USA, *]")); err == nil {
		t.Fatal("absorbed a shortcut to nowhere")
	}
	if _, err := c.AbsorbLearned("idx:1", "not-a-urn"); err == nil {
		t.Fatal("absorbed an undecodable area")
	}
	if len(c.Registrations()) != 0 {
		t.Fatalf("rejected absorptions left registrations: %+v", c.Registrations())
	}
}

// TestAbsorbLearnedGeneralizesUnknownArea: an area mined from a trail may
// name hierarchy nodes this namespace has not loaded; absorption generalizes
// to the deepest known ancestor (losing precision, never recall) instead of
// failing or storing an unservable area.
func TestAbsorbLearnedGeneralizesUnknownArea(t *testing.T) {
	ns := testNS()
	c := New(ns, "me:1")
	// USA/OR/Salem is not in testNS; it generalizes to USA/OR.
	if _, err := c.AbsorbLearned("idx:1", "urn:InterestArea:(USA.OR.Salem,Music.CDs)"); err != nil {
		t.Fatal(err)
	}
	regs := c.Registrations()
	if len(regs) != 1 {
		t.Fatalf("registrations = %+v", regs)
	}
	want := ns.MustParseArea("[USA/OR, Music/CDs]")
	if !regs[0].Area.Covers(want) {
		t.Fatalf("generalized area %v does not cover %v", regs[0].Area, want)
	}
}

// TestAbsorbLearnedCapsCells: an absorbed registration holds at most
// maxAbsorbedCells cells. A widening past the cap, or a first learned area
// wider than it, is refused with an error and changes nothing; an area the
// registration already covers is still the no-op it always was.
func TestAbsorbLearnedCapsCells(t *testing.T) {
	// 33 × 32 leaf cells, none covering another.
	loc, merch := hierarchy.New("Location"), hierarchy.New("Merchandise")
	for i := 0; i < 33; i++ {
		loc.MustAdd(fmt.Sprintf("L%d", i))
	}
	for j := 0; j < 32; j++ {
		merch.MustAdd(fmt.Sprintf("M%d", j))
	}
	ns := namespace.MustNew(loc, merch)
	cells := func(from, to int) string {
		parts := make([]string, 0, to-from)
		for k := from; k < to; k++ {
			parts = append(parts, fmt.Sprintf("(L%d,M%d)", k/32, k%32))
		}
		return namespace.URNPrefix + strings.Join(parts, "+")
	}

	c := New(ns, "me:1")
	if _, err := c.AbsorbLearned("wide:1", cells(0, maxAbsorbedCells+1)); err == nil {
		t.Fatalf("a first learned area of %d cells was absorbed", maxAbsorbedCells+1)
	}
	if regs := c.Registrations(); len(regs) != 0 {
		t.Fatalf("a refused absorption left %+v", regs)
	}

	if _, err := c.AbsorbLearned("idx:1", cells(0, maxAbsorbedCells)); err != nil {
		t.Fatalf("absorbing exactly the cap: %v", err)
	}
	gen := c.Generation()
	if _, err := c.AbsorbLearned("idx:1", cells(maxAbsorbedCells, maxAbsorbedCells+1)); err == nil {
		t.Fatal("a widening past the cap was absorbed")
	}
	if g, err := c.AbsorbLearned("idx:1", cells(5, 6)); err != nil || g != 0 {
		t.Fatalf("re-absorbing a covered cell at the cap = generation %d, %v; want 0, nil", g, err)
	}
	if regs := c.Registrations(); len(regs) != 1 || len(regs[0].Area.Cells) != maxAbsorbedCells || c.Generation() != gen {
		t.Fatalf("after the refused widening: %+v at generation %d (was %d)", regs, c.Generation(), gen)
	}
}
