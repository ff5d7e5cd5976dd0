package algebra

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/xmltree"
)

func blobTestPlan(t *testing.T, id string, docs ...*xmltree.Node) *Plan {
	t.Helper()
	data := Data(docs...)
	sel := Select(MustParsePredicate("price < 100"), data)
	return NewPlan(id, "client:1", Display(sel))
}

func saleDoc(i int) *xmltree.Node {
	return xmltree.MustParse(fmt.Sprintf("<sale><cd>Album %02d</cd><price>%d</price></sale>", i, 3+i))
}

// frameRefs stages p through EncodeFrameRefs and returns the bytes.
func frameRefs(p *Plan, ref func(*xmltree.Node) (string, bool)) string {
	enc := xmltree.GetFrameEncoder()
	defer enc.Release()
	EncodeFrameRefs(p, enc, ref)
	return enc.String()
}

// TestSubstituteResolveRoundTrip pins the core property: staging payloads as
// references and resolving them back yields a byte-identical plan. The
// referenced frame is the staging-tree reference with each payload slot
// swapped for its <blob fp> and the root marked.
func TestSubstituteResolveRoundTrip(t *testing.T) {
	store := blobstore.New()
	docs := []*xmltree.Node{saleDoc(1), saleDoc(2)}
	plan := blobTestPlan(t, "rt", docs...)
	want := EncodeString(plan)

	var named []string
	frame := frameRefs(plan, func(d *xmltree.Node) (string, bool) {
		_, fp := store.Intern(d.Share())
		named = append(named, fp.String())
		return fp.String(), true
	})
	if len(named) != 2 {
		t.Fatalf("ref called for %d payloads, want 2", len(named))
	}
	staged := stagedMarshal(plan)
	walkDataPayloads(staged, func(data *xmltree.Node, i int) {
		data.Children[i] = xmltree.ElemAttrs("blob", xmltree.Attr{Name: "fp", Value: named[0]})
		named = named[1:]
	})
	staged.SetAttr(BlobsAttr, "1")
	if frame != staged.String() {
		t.Fatalf("referenced frame\n %s\nis not the staged substitution\n %s", frame, staged.String())
	}
	if strings.Contains(frame, "Album") || docs[0].Frozen() {
		t.Fatalf("payload inline, or the caller's mutable payload frozen: %s", frame)
	}

	// The reference body crosses the wire.
	wire, err := xmltree.DecodeString(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !Marked(wire) {
		t.Fatal("body not marked")
	}
	resolved, err := ResolveBlobs(wire, func(fp string) (*xmltree.Node, error) {
		p, ok := blobstore.ParseFP(fp)
		if !ok {
			return nil, fmt.Errorf("bad fp")
		}
		n, ok := store.Get(p)
		if !ok {
			return nil, fmt.Errorf("unknown fp")
		}
		return n, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(resolved)
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodeString(back); got != want {
		t.Fatalf("round trip diverged:\n got %s\nwant %s", got, want)
	}
}

// TestSubstituteRefusesAmbiguousPayload: payload data shaped exactly like a
// reference must force the whole plan inline and unmarked, without asking
// for a single reference.
func TestSubstituteRefusesAmbiguousPayload(t *testing.T) {
	amb := xmltree.MustParse(`<blob fp="userdata"/>`)
	plan := blobTestPlan(t, "amb", saleDoc(1), amb)
	frame := frameRefs(plan, func(*xmltree.Node) (string, bool) {
		t.Fatal("ref called for a plan holding a reference-shaped payload")
		return "", false
	})
	if frame != EncodeString(plan) {
		t.Fatalf("ambiguous plan not staged plain: %s", frame)
	}
	// The unmarked body passes through resolution untouched, preserving the
	// payload verbatim.
	body, err := xmltree.DecodeString(frame)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := ResolveBlobs(body, nil, nil)
	if err != nil || resolved != body {
		t.Fatalf("unmarked body not passed through: %v", err)
	}
	back, err := Unmarshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodeString(back); !strings.Contains(got, `<blob fp="userdata">`) && !strings.Contains(got, `<blob fp="userdata"/>`) {
		t.Fatalf("ambiguous payload lost: %s", got)
	}
}

func TestResolveErrors(t *testing.T) {
	resolve := func(fp string) (*xmltree.Node, error) {
		if fp == "known" {
			return saleDoc(9), nil
		}
		return nil, fmt.Errorf("not resident")
	}
	cases := []struct {
		name, body string
		wantErr    string
	}{
		{"unknown fp", `<mqp id="q" target="t" blobs="1"><plan><data><blob fp="nope"/></data></plan></mqp>`, "not resident"},
		{"missing fp", `<mqp id="q" target="t" blobs="1"><plan><data><blob/></data></plan></mqp>`, "without fp"},
		{"conflict", `<mqp id="q" target="t" blobs="1"><plan><data><blob fp="known"><sale/></blob></data></plan></mqp>`, "conflict"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := xmltree.DecodeString(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ResolveBlobs(doc, resolve, nil); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want containing %q", err, tc.wantErr)
			}
		})
	}
	// A valid reference resolves.
	doc, err := xmltree.DecodeString(`<mqp id="q" target="t" blobs="1"><plan><display><data><blob fp="known"/></data></display></plan></mqp>`)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := ResolveBlobs(doc, resolve, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := resolved.String(); !strings.Contains(s, "Album 09") {
		t.Fatalf("reference not resolved: %s", s)
	}
	// The input body was not mutated (frozen decode, COW rebuild).
	if s := doc.String(); strings.Contains(s, "Album") {
		t.Fatal("frozen input mutated")
	}
}

// TestResolveInterns: inline payloads are rewritten to their canonical
// aliases so a receiver retains one copy of repeated freight.
func TestResolveInterns(t *testing.T) {
	store := blobstore.New()
	canon, _ := store.Intern(saleDoc(1))
	plan := blobTestPlan(t, "intern", saleDoc(1))
	// Marked, every payload inline.
	wire, err := xmltree.DecodeString(frameRefs(plan, func(*xmltree.Node) (string, bool) { return "", false }))
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := ResolveBlobs(wire, nil, func(d *xmltree.Node) *xmltree.Node {
		return store.Canonicalize(d)
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	walkDataPayloads(resolved, func(data *xmltree.Node, i int) {
		if data.Children[i] == canon {
			found = true
		}
	})
	if !found {
		t.Fatal("inline payload not replaced by its canonical alias")
	}
}

// TestUnmarkedBlobElementsAreData: without the marker, <blob> elements are
// ordinary payloads end to end.
func TestUnmarkedBlobElementsAreData(t *testing.T) {
	doc, err := xmltree.DecodeString(`<mqp id="q" target="t"><plan><data><blob fp="whatever"/></data></plan></mqp>`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ResolveBlobs(doc, func(string) (*xmltree.Node, error) {
		t.Fatal("resolver called on unmarked body")
		return nil, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != doc {
		t.Fatal("unmarked body rebuilt")
	}
}

// FuzzResolveBlobs drives arbitrary wire bodies through resolution: it must
// never panic, never mutate its frozen input, and fail loudly (not drop
// payloads) on malformed references.
func FuzzResolveBlobs(f *testing.F) {
	f.Add(`<mqp id="q" target="t" blobs="1"><plan><data><blob fp="AAAAAAAAAAAAAAAAAAAAAA"/></data></plan></mqp>`)
	f.Add(`<mqp id="q" target="t" blobs="1"><plan><data><blob fp="short"/></data></plan></mqp>`)
	f.Add(`<mqp id="q" target="t" blobs="1"><plan><data><blob fp="x"><inline/></blob></data></plan></mqp>`)
	f.Add(`<mqp id="q" target="t"><plan><data><blob fp="x"/></data></plan></mqp>`)
	f.Add(`<mqp id="q" target="t" blobs="1"><plan><select pred="price &lt; 3"><data><sale><price>1</price></sale><blob/></data></select></plan></mqp>`)
	f.Fuzz(func(t *testing.T, s string) {
		doc, err := xmltree.DecodeString(s)
		if err != nil {
			return
		}
		store := blobstore.New()
		known, _ := store.Intern(saleDoc(1))
		resolve := func(fp string) (*xmltree.Node, error) {
			p, ok := blobstore.ParseFP(fp)
			if !ok {
				return nil, fmt.Errorf("malformed fp %q", fp)
			}
			n, ok := store.Get(p)
			if !ok {
				return nil, fmt.Errorf("unknown fp")
			}
			return n, nil
		}
		before := doc.String()
		out, rerr := ResolveBlobs(doc, resolve, func(d *xmltree.Node) *xmltree.Node { return store.Canonicalize(d) })
		if doc.String() != before {
			t.Fatalf("input mutated by resolution")
		}
		if rerr != nil {
			return // malformed references must error, and did
		}
		if !Marked(doc) && out != doc {
			t.Fatal("unmarked body rebuilt")
		}
		// A successfully resolved marked body carries no reference elements
		// in payload position (all were replaced, or an error was returned).
		_ = known
		if Marked(doc) {
			walkDataPayloads(out, func(data *xmltree.Node, i int) {
				if _, isRef := IsBlobRef(data.Children[i]); isRef {
					t.Fatalf("unresolved reference survived: %s", data.Children[i].String())
				}
			})
		}
	})
}
