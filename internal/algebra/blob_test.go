package algebra

import (
	"fmt"
	"slices"
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
func frameRefs(p *Plan, ref func(*xmltree.Node, []byte) ([]byte, bool)) string {
	enc := xmltree.GetFrameEncoder()
	defer enc.Release()
	EncodeFrameRefs(p, enc, ref)
	return enc.String()
}

// storeRef is a reference policy that names every payload, interning it in
// store, and records the fingerprints it wrote.
func storeRef(store *blobstore.Store, named *[]string) func(*xmltree.Node, []byte) ([]byte, bool) {
	return func(d *xmltree.Node, dst []byte) ([]byte, bool) {
		_, fp := store.Intern(d.Share())
		*named = append(*named, fp.String())
		return fp.Append(dst), true
	}
}

// storeResolve resolves fingerprints against store.
func storeResolve(store *blobstore.Store) func(string) (*xmltree.Node, error) {
	return func(fp string) (*xmltree.Node, error) {
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
}

// TestSubstituteResolveRoundTrip pins the core property: staging payloads as
// references and resolving them back yields a byte-identical plan. The
// referenced frame is the staging-tree reference with the run of payload
// slots swapped for one packed <blob fp="fp1 fp2"/> and the root marked.
func TestSubstituteResolveRoundTrip(t *testing.T) {
	store := blobstore.New()
	docs := []*xmltree.Node{saleDoc(1), saleDoc(2)}
	plan := blobTestPlan(t, "rt", docs...)
	want := EncodeString(plan)

	var named []string
	frame := frameRefs(plan, storeRef(store, &named))
	if len(named) != 2 {
		t.Fatalf("ref called for %d payloads, want 2", len(named))
	}
	staged := stagedMarshal(plan)
	walkDataPayloads(staged, func(data *xmltree.Node, i int) {
		data.Children = []*xmltree.Node{xmltree.ElemAttrs("blob", xmltree.Attr{Name: "fp", Value: strings.Join(named, " ")})}
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
	resolved, err := ResolveBlobs(wire, storeResolve(store), nil)
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
	frame := frameRefs(plan, func(*xmltree.Node, []byte) ([]byte, bool) {
		t.Fatal("ref called for a plan holding a reference-shaped payload")
		return nil, false
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

// TestBlobNamedPayloadRoundTrips: a payload element named blob that is not a
// reference keeps the frame plain on the sender, so the receiver never takes
// it for one, and the plan crosses a store-enabled hop unchanged. The policy
// names every other payload and ships the blob one inline, as a peer does a
// payload below blobMinBytes.
func TestBlobNamedPayloadRoundTrips(t *testing.T) {
	for _, payload := range []string{
		`<blob/>`,
		`<blob fp="x"><y/></blob>`,
		`<blob fp="x">t</blob>`,
		`<blob fp="x" kind="user"/>`,
	} {
		t.Run(payload, func(t *testing.T) {
			store := blobstore.New()
			plan := blobTestPlan(t, "named", saleDoc(1), xmltree.MustParse(payload), saleDoc(2))
			var named []string
			all := storeRef(store, &named)
			body, err := xmltree.DecodeString(frameRefs(plan, func(d *xmltree.Node, dst []byte) ([]byte, bool) {
				if d.Name == "blob" {
					return dst, false
				}
				return all(d, dst)
			}))
			if err != nil {
				t.Fatal(err)
			}
			resolved, err := ResolveBlobs(body, storeResolve(store), nil)
			if err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			back, err := Unmarshal(resolved)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := EncodeString(back), EncodeString(plan); got != want {
				t.Fatalf("round trip diverged:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestRefRunsSplitByInline: a run is consecutive referenced payloads of one
// <data>; an inline payload ends it, and a lone reference is the plain
// single-reference element.
func TestRefRunsSplitByInline(t *testing.T) {
	store := blobstore.New()
	docs := []*xmltree.Node{saleDoc(1), saleDoc(2), saleDoc(3), saleDoc(4), saleDoc(5)}
	plan := blobTestPlan(t, "split", docs...)
	var named []string
	inline := docs[2]
	all := storeRef(store, &named)
	frame := frameRefs(plan, func(d *xmltree.Node, dst []byte) ([]byte, bool) {
		if d == inline {
			return dst, false
		}
		return all(d, dst)
	})
	want := fmt.Sprintf(`<data><blob fp="%s %s"/>%s<blob fp="%s %s"/></data>`,
		named[0], named[1], inline, named[2], named[3])
	if !strings.Contains(frame, want) {
		t.Fatalf("frame\n %s\nlacks\n %s", frame, want)
	}
	body, err := xmltree.DecodeString(frame)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := ResolveBlobs(body, storeResolve(store), nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(resolved)
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodeString(back); got != EncodeString(plan) {
		t.Fatalf("round trip diverged: %s", got)
	}
}

// TestResolveRunErrors: one bad fingerprint in a run fails the whole body,
// and nothing of it is returned.
func TestResolveRunErrors(t *testing.T) {
	store := blobstore.New()
	_, a := store.Intern(saleDoc(1))
	_, b := store.Intern(saleDoc(2))
	_, unknown := blobstore.New().Intern(saleDoc(3))
	for name, run := range map[string]string{
		"unknown":   fmt.Sprintf("%s %s %s", a, unknown, b),
		"malformed": fmt.Sprintf("%s %s %s", a, "x", b),
		"empty":     fmt.Sprintf("%s  %s", a, b),
	} {
		t.Run(name, func(t *testing.T) {
			body, err := xmltree.DecodeString(fmt.Sprintf(
				`<mqp id="q" target="t" blobs="1"><plan><display><data><blob fp="%s"/></data></display></plan></mqp>`, run))
			if err != nil {
				t.Fatal(err)
			}
			if out, err := ResolveBlobs(body, storeResolve(store), nil); err == nil || out != nil {
				t.Fatalf("run %q resolved to %v, error %v", run, out, err)
			}
		})
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
		{"text conflict", `<mqp id="q" target="t" blobs="1"><plan><data><blob fp="known">t</blob></data></plan></mqp>`, "conflict"},
		{"extra attribute", `<mqp id="q" target="t" blobs="1"><plan><data><blob fp="known" v="2"/></data></plan></mqp>`, "besides fp"},
		{"trailing space", `<mqp id="q" target="t" blobs="1"><plan><data><blob fp="known "/></data></plan></mqp>`, "empty fingerprint"},
		{"empty fp", `<mqp id="q" target="t" blobs="1"><plan><data><blob fp=""/></data></plan></mqp>`, "empty fingerprint"},
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
	wire, err := xmltree.DecodeString(frameRefs(plan, func(_ *xmltree.Node, dst []byte) ([]byte, bool) { return dst, false }))
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
	f.Add(`<mqp id="q" target="t" blobs="1"><plan><data><blob fp="AAAAAAAAAAAAAAAAAAAAAA AAAAAAAAAAAAAAAAAAAAAA"/></data></plan></mqp>`)
	f.Add(`<mqp id="q" target="t" blobs="1"><plan><data><blob fp="AAAAAAAAAAAAAAAAAAAAAA  AAAAAAAAAAAAAAAAAAAAAA"/></data></plan></mqp>`)
	f.Add(`<mqp id="q" target="t" blobs="1"><plan><data><blob fp=" AAAAAAAAAAAAAAAAAAAAAA"/><i/><blob fp="AAAAAAAAAAAAAAAAAAAAAA short"/></data></plan></mqp>`)
	f.Add(`<mqp id="q" target="t" blobs="1"><plan><union><data><blob fp="a b"/><annotations><annot k="card" v="2"/></annotations><blob fp="c"/></data></union></plan>` +
		`<original><data><blob fp="d e f"/></data></original></mqp>`)
	f.Fuzz(func(t *testing.T, s string) {
		doc, err := xmltree.DecodeString(s)
		if err != nil {
			return
		}
		store := blobstore.New()
		known, _ := store.Intern(saleDoc(1))
		before := doc.String()
		out, rerr := ResolveBlobs(doc, storeResolve(store), func(d *xmltree.Node) *xmltree.Node { return store.Canonicalize(d) })
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

// unmarked is body's root without the BlobsAttr mark.
func unmarked(body *xmltree.Node) *xmltree.Node {
	cp := body.CloneShallow()
	cp.Attrs = slices.DeleteFunc(cp.Attrs, func(a xmltree.Attr) bool { return a.Name == BlobsAttr })
	return cp
}

// FuzzRefRuns: for any plan and any choice of which payloads go by reference
// (bit k%64 of mask for the k-th payload in document order), the frame
// EncodeFrameRefs stages, decoded and resolved against a store holding those
// payloads, is the decoded EncodeFrame.
func FuzzRefRuns(f *testing.F) {
	f.Add(`<mqp id="r1" target="t:1"><plan><display><data><a>1</a><b>2</b><c>3</c><d>4</d></data></display></plan></mqp>`, uint64(0b1011))
	f.Add(`<mqp id="r2" target="t:1"><plan><union><data><a>1</a><a>1</a><b/></data><data><b/><c>x</c></data></union></plan>`+
		`<original><union><data><a>1</a><c>x</c><c>y</c></data><data/></union></original></mqp>`, uint64(0b1101101))
	f.Add(`<mqp id="r3" target="t:1"><plan><select pred="price &lt; 3"><data><annotations><annot k="card" v="3"/></annotations>`+
		`<sale><price>1</price></sale><sale><price>2</price></sale><sale><price>3</price></sale></data></select></plan></mqp>`, uint64(0b101))
	f.Add(`<mqp id="r4" target="t:1"><plan><data><a/><blob/><b/></data></plan></mqp>`, ^uint64(0))
	f.Add(`<mqp id="r5" target="t:1"><plan><data><a/><b/></data></plan><visited b="2">a:1 1 AQ</visited></mqp>`, ^uint64(0))
	f.Fuzz(func(t *testing.T, s string, mask uint64) {
		p, err := DecodeString(s)
		if err != nil {
			return
		}
		store := blobstore.New()
		k := 0
		frame := frameRefs(p, func(d *xmltree.Node, dst []byte) ([]byte, bool) {
			on := mask>>(k%64)&1 == 1
			k++
			if !on {
				return dst, false
			}
			_, fp := store.Intern(d.Share())
			return fp.Append(dst), true
		})
		refs, err := xmltree.DecodeString(frame)
		if err != nil {
			t.Fatalf("referenced frame does not decode: %v\n%s", err, frame)
		}
		want, err := xmltree.DecodeString(EncodeString(p))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ResolveBlobs(refs, storeResolve(store), nil)
		if err != nil {
			t.Fatalf("resolve: %v\n%s", err, frame)
		}
		if !xmltree.Equal(unmarked(got), want) {
			t.Fatalf("resolved frame\n %s\nis not the plain frame\n %s", unmarked(got), want)
		}
	})
}
