package algebra

import (
	"strings"
	"testing"

	"repro/internal/xmltree"
)

func visitedTestPlan() *Plan {
	data := Data(xmltree.MustParse(`<i><v>1</v></i>`).Freeze(),
		xmltree.MustParse(`<i><v>2</v></i>`).Freeze())
	data.SetCard(2)
	body := Select(MustParsePredicate("v < 10 and v > 0"), Union(
		data,
		URL("http://s:9020/", "/data[id=1]"),
		URN("urn:X:Y"),
	))
	body.Annotate("card", "5")
	p := NewPlan("vq", "t:1", Display(Project("hit", []string{"v", "w"}, body)))
	p.RetainOriginal()
	return p
}

// TestVisitedWireRoundTrip: the <visited> section survives Marshal/Unmarshal
// with counts and fingerprints intact.
func TestVisitedWireRoundTrip(t *testing.T) {
	p := visitedTestPlan()
	v := p.VisitedMemory()
	v.Mark("a:1", Fingerprint(p.Root))
	v.Mark("a:1", 0xdeadbeef)
	v.Mark("b:1", 42)

	rt, err := Unmarshal(Marshal(p))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Visited == nil {
		t.Fatal("visited section lost on the wire")
	}
	if got := rt.Visited.Servers(); len(got) != 2 || got[0] != "a:1" || got[1] != "b:1" {
		t.Fatalf("servers = %v", got)
	}
	ra, _ := rt.Visited.Lookup("a:1")
	if ra.Count != 2 || ra.Fingerprint != 0xdeadbeef {
		t.Fatalf("a:1 record = %+v", ra)
	}
	rb, _ := rt.Visited.Lookup("b:1")
	if rb.Count != 1 || rb.Fingerprint != 42 {
		t.Fatalf("b:1 record = %+v", rb)
	}
	// An empty memory is not emitted at all.
	p2 := visitedTestPlan()
	_ = p2.VisitedMemory()
	rt2, err := Unmarshal(Marshal(p2))
	if err != nil {
		t.Fatal(err)
	}
	if rt2.Visited != nil {
		t.Fatal("empty visited memory must not travel")
	}
}

// TestFingerprintWireStable: the fingerprint a server records must equal the
// fingerprint a later server computes after the plan crossed the wire —
// otherwise every hop would look like progress and ping-pong filtering
// would never trigger.
func TestFingerprintWireStable(t *testing.T) {
	p := visitedTestPlan()
	fp := Fingerprint(p.Root)
	for hop := 0; hop < 3; hop++ {
		rt, err := Unmarshal(Marshal(p))
		if err != nil {
			t.Fatal(err)
		}
		if got := Fingerprint(rt.Root); got != fp {
			t.Fatalf("hop %d: fingerprint %x != %x — wire round trip perturbs it", hop, got, fp)
		}
		p = rt
	}
}

// TestFingerprintSensitivity: every mutation class a server applies changes
// the fingerprint, while state outside the root does not.
func TestFingerprintSensitivity(t *testing.T) {
	p := visitedTestPlan()
	base := Fingerprint(p.Root)

	ann := visitedTestPlan()
	ann.Root.Children[0].Annotate("card", "9")
	if Fingerprint(ann.Root) == base {
		t.Fatal("annotation must change the fingerprint")
	}

	bound := visitedTestPlan()
	bound.Root.Walk(func(n *Node) bool {
		if n.Kind == KindUnion {
			for i, c := range n.Children {
				if c.Kind == KindURN {
					n.Children[i] = Data()
				}
			}
		}
		return true
	})
	if Fingerprint(bound.Root) == base {
		t.Fatal("binding a URN must change the fingerprint")
	}

	// Extra sections (provenance) and visited memory do not participate:
	// a mere forward leaves the fingerprint untouched.
	fwd := visitedTestPlan()
	fwd.VisitedMemory().Mark("s:1", 7)
	fwd.Extra = map[string]*xmltree.Node{"provenance": xmltree.Elem("provenance").Freeze()}
	if Fingerprint(fwd.Root) != base {
		t.Fatal("state outside the root must not change the fingerprint")
	}
}

// TestVisitedMarshalFrozenAndCached: the marshaled element is frozen (every
// serialization of the plan aliases it) and invalidated by Mark.
func TestVisitedMarshalFrozenAndCached(t *testing.T) {
	v := NewVisited()
	v.Mark("a:1", 1)
	e1 := v.Marshal()
	if !e1.Frozen() {
		t.Fatal("marshaled visited element must be frozen")
	}
	if e2 := v.Marshal(); e2 != e1 {
		t.Fatal("marshal must be cached between marks")
	}
	v.Mark("b:1", 2)
	e3 := v.Marshal()
	if e3 == e1 {
		t.Fatal("Mark must invalidate the marshal cache")
	}
	if rt, err := UnmarshalVisited(e3); err != nil || rt.Len() != 2 {
		t.Fatalf("marshal = %s (err %v)", e3, err)
	}
}

// TestVisitedCompactWireForm pins the compact encoding: one packed text
// run, count omitted when 1, no attributes — and verifies it survives a full
// string serialization round trip through the zero-copy decoder.
func TestVisitedCompactWireForm(t *testing.T) {
	v := NewVisited()
	v.Mark("meta:9020", 0x1a2b3c4d5e6f7081)
	v.Mark("meta:9020", 0x1a2b3c4d5e6f7081)
	v.Mark("s1:9020", 1)
	e := v.Marshal()
	if len(e.Attrs) != 0 {
		t.Fatalf("compact form must carry no attributes: %s", e)
	}
	if len(e.Elements()) != 0 {
		t.Fatalf("compact form must carry no per-record elements: %s", e)
	}
	// The compact form must be meaningfully smaller than an
	// element-per-record encoding of the same records.
	legacySize := len(`<visited>` +
		`<v fp="1a2b3c4d5e6f7081" n="2" s="meta:9020"/>` +
		`<v fp="1" n="1" s="s1:9020"/>` + `</visited>`)
	if e.ByteSize() >= legacySize*3/4 {
		t.Fatalf("compact visited is %d B; legacy was %d B — want at least 25%% smaller", e.ByteSize(), legacySize)
	}
	// Round trip through real wire bytes and the zero-copy decoder.
	doc, err := xmltree.DecodeString(e.String())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := UnmarshalVisited(doc)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := rt.Lookup("meta:9020"); !ok || r.Count != 2 || r.Fingerprint != 0x1a2b3c4d5e6f7081 {
		t.Fatalf("meta record = %+v ok=%v", r, ok)
	}
	if r, ok := rt.Lookup("s1:9020"); !ok || r.Count != 1 || r.Fingerprint != 1 {
		t.Fatalf("s1 record = %+v ok=%v", r, ok)
	}
}

// TestVisitedLegacyWireForm: the PR 4 element-per-record encoding is refused
// rather than read as empty routing memory, and the same record in the packed
// form reads back exactly.
func TestVisitedLegacyWireForm(t *testing.T) {
	if _, err := UnmarshalVisited(xmltree.MustParse(
		`<visited budget="3"><v fp="deadbeef42" n="2" s="meta:9020"/></visited>`)); err == nil {
		t.Fatal("per-record element form accepted")
	}
	rt, err := UnmarshalVisited(xmltree.MustParse(`<visited>meta:9020 2 AAAA3q2-70I</visited>`))
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := rt.Lookup("meta:9020"); !ok || r.Count != 2 || r.Fingerprint != 0xdeadbeef42 {
		t.Fatalf("record = %+v ok=%v", r, ok)
	}
}

// TestVisitedCompactRejectsGarbage: malformed packed records fail loudly.
func TestVisitedCompactRejectsGarbage(t *testing.T) {
	for _, src := range []string{
		`<visited>onlyserver</visited>`,              // missing fingerprint
		`<visited>a:1 0 AAAAAAAAAAE</visited>`,       // zero count
		`<visited>a:1 x AAAAAAAAAAE</visited>`,       // bad count
		`<visited>a:1 2 zz</visited>`,                // bad fingerprint
		`<visited>a:1 2 AAAAAAAAAAE extra</visited>`, // too many fields
	} {
		if _, err := UnmarshalVisited(xmltree.MustParse(src)); err == nil {
			t.Errorf("no error for %s", src)
		}
	}
}

// TestVisitedCloneIsDeep: plans are cloned for oracles and retries; the
// clone's memory must not share records with the original.
func TestVisitedCloneIsDeep(t *testing.T) {
	p := visitedTestPlan()
	p.VisitedMemory().Mark("a:1", 1)
	cp := p.Clone()
	cp.Visited.Mark("a:1", 2)
	cp.Visited.Mark("b:1", 3)
	orig, _ := p.Visited.Lookup("a:1")
	if orig.Count != 1 || orig.Fingerprint != 1 {
		t.Fatalf("clone mutated the original: %+v", orig)
	}
	if p.Visited.Len() != 1 {
		t.Fatalf("clone leaked records into the original: %v", p.Visited.Servers())
	}
}

// TestUnmarshalVisitedRejectsGarbage: malformed sections fail loudly rather
// than decaying into empty memory (which would reopen livelocks). The section
// has no element content: per-record elements and any other child are
// rejected, beside the records of the packed form or without them.
func TestUnmarshalVisitedRejectsGarbage(t *testing.T) {
	for _, src := range []string{
		`<visited><v n="1"/></visited>`,                                          // per-record element, no server
		`<visited><v s="a:1" n="x"/></visited>`,                                  // per-record element, bad count
		`<visited><v s="a:1" n="0"/></visited>`,                                  // per-record element, zero count
		`<visited><v s="a:1" n="-1000"/></visited>`,                              // per-record element, negative count
		`<visited><v s="a:1" fp="zz"/></visited>`,                                // per-record element, bad fingerprint
		`<visited budget="x"><v s="a:1"/></visited>`,                             // per-record element, bad budget
		`<visited budget="3"><v fp="deadbeef42" n="2" s="meta:9020"/></visited>`, // well-formed per-record element
		`<visited b="3">idx-OR:9020 2 AAAAAAAAACs;s1:9020 AAAAAAAAAAc` +
			`<a s="s1:9020" u="urn:L:USA/OR"/></visited>`, // answered-area record beside packed records
		`<visited><a s="s:1" u=""/></visited>`, // unknown child alone
	} {
		if _, err := UnmarshalVisited(xmltree.MustParse(src)); err == nil {
			t.Errorf("no error for %s", src)
		}
	}
	if _, err := UnmarshalVisited(xmltree.Elem("other")); err == nil {
		t.Error("wrong element name accepted")
	}
}

// TestUnmarshalVisitedBudgetEdge: a b attribute, which once overrode the
// router's revisit budget for the plan, is ignored like any other unknown
// attribute, whatever its value: the records read back exactly, and the
// memory re-marshals without it.
func TestUnmarshalVisitedBudgetEdge(t *testing.T) {
	want := `<visited>a:1 AAAAAAAAAAE</visited>`
	for _, b := range []string{"0", "-3", "7", "100", "x"} {
		src := `<visited b="` + b + `">a:1 AAAAAAAAAAE</visited>`
		v, err := UnmarshalVisited(xmltree.MustParse(src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if r, ok := v.Lookup("a:1"); !ok || r.Count != 1 || r.Fingerprint != 1 || v.Len() != 1 {
			t.Fatalf("%s: a:1 record = %+v ok=%v", src, r, ok)
		}
		if got := v.Marshal().String(); got != want {
			t.Errorf("%s: re-marshal = %s, want %s", src, got, want)
		}
	}
	v, err := UnmarshalVisited(xmltree.MustParse(`<visited b="0"/>`))
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 0 {
		t.Fatalf(`<visited b="0"/> read %v, want empty memory`, v.Servers())
	}
}

// TestVisitedIgnoresAnsweredRecords: the visited memory carries no
// answered-area record (the <a s u> child of an older wire form). Marshal
// writes none, and a section that carries one beside valid visit records is
// refused whole, while the same section without it still reads back exactly.
func TestVisitedIgnoresAnsweredRecords(t *testing.T) {
	v := NewVisited()
	v.Mark("idx-OR:9020", 42)
	v.Mark("idx-OR:9020", 43)
	v.Mark("s1:9020", 7)
	e := v.Marshal()
	if len(e.Elements()) != 0 {
		t.Fatalf("Marshal wrote element content: %s", e)
	}
	want := e.String()
	src := strings.Replace(want, "</visited>", `<a s="s1:9020" u="urn:L:USA/OR"/></visited>`, 1)
	if src == want {
		t.Fatalf("no closing tag to splice into: %s", want)
	}
	if _, err := UnmarshalVisited(xmltree.MustParse(src)); err == nil {
		t.Fatalf("answered-area record accepted: %s", src)
	}
	got, err := UnmarshalVisited(xmltree.MustParse(want))
	if err != nil {
		t.Fatalf("%s: %v", want, err)
	}
	if r, ok := got.Lookup("idx-OR:9020"); !ok || r.Count != 2 || r.Fingerprint != 43 {
		t.Fatalf("idx-OR:9020 record = %+v ok=%v, want count 2 fp 43", r, ok)
	}
	if r, ok := got.Lookup("s1:9020"); !ok || r.Count != 1 || r.Fingerprint != 7 {
		t.Fatalf("s1:9020 record = %+v ok=%v, want count 1 fp 7", r, ok)
	}
	if re := got.Marshal().String(); re != want {
		t.Fatalf("re-encoded\n%s\nwant\n%s", re, want)
	}
}
