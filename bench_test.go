// Package repro's top-level benchmarks regenerate every experiment of the
// reproduction (one benchmark per experiment id of experiments.All) plus
// micro-benchmarks of the core machinery. Run:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark executes the full scenario — building the
// simulated network, running the workload, checking the paper's qualitative
// claims — so op time is "cost to reproduce the experiment".
package repro_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/provenance"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var runner experiments.Runner
	for _, r := range experiments.All(false) {
		if r.ID == id {
			runner = r
			break
		}
	}
	if runner.Run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := runner.Run()
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s: no rows", id)
		}
	}
}

func BenchmarkE1Fig34CDQuery(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2Fig1GeneRouting(b *testing.B)   { benchExperiment(b, "E2") }
func BenchmarkE3Fig5CoverOverlap(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkE4RoutingComparison(b *testing.B) { benchExperiment(b, "E4") }
func BenchmarkE5MQPvsCoordinator(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkE6Intensional(b *testing.B)       { benchExperiment(b, "E6") }
func BenchmarkE7CurrencyLatency(b *testing.B)   { benchExperiment(b, "E7") }
func BenchmarkE8AbsorptionRewrite(b *testing.B) { benchExperiment(b, "E8") }
func BenchmarkE9CatalogScaling(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10Provenance(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11Annotations(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12PrivateJoin(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkE13Ablations(b *testing.B)        { benchExperiment(b, "E13") }
func BenchmarkE14Robustness(b *testing.B)       { benchExperiment(b, "E14") }

// --- Micro-benchmarks of the machinery the experiments stand on ---------

func BenchmarkMicroPlanEncodeDecode(b *testing.B) {
	sales, listings := workload.CDCatalog(1, 30)
	plan := algebra.NewPlan("bench", "t:1", algebra.Display(
		algebra.JoinNamed("cd", "cd", "sale", "listing",
			algebra.Data(sales...), algebra.Data(listings...))))
	s := algebra.EncodeString(plan)
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := algebra.DecodeString(s)
		if err != nil {
			b.Fatal(err)
		}
		if algebra.EncodeString(p) != s {
			b.Fatal("unstable round trip")
		}
	}
}

func BenchmarkMicroSelectPushdown(b *testing.B) {
	leaves := make([]*algebra.Node, 16)
	for i := range leaves {
		leaves[i] = algebra.URL(fmt.Sprintf("s%d:1", i), "")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := algebra.Display(algebra.Select(algebra.MustParsePredicate("price < 10"),
			algebra.Union(cloneAll(leaves)...)))
		if n := algebra.PushSelectThroughUnion(root); n != 1 {
			b.Fatalf("rewrites = %d", n)
		}
	}
}

func cloneAll(ns []*algebra.Node) []*algebra.Node {
	out := make([]*algebra.Node, len(ns))
	for i, n := range ns {
		out[i] = n.Clone()
	}
	return out
}

func BenchmarkMicroThreeWayJoinEval(b *testing.B) {
	sales, listings := workload.CDCatalog(2, 100)
	favs := make([]*xmltree.Node, 20)
	for i := range favs {
		favs[i] = xmltree.Elem("song",
			xmltree.ElemText("title", fmt.Sprintf("Track 1 of Album %03d", i*3)))
	}
	plan := algebra.JoinNamed("title", "listing/song", "fav", "match",
		algebra.Data(favs...),
		algebra.JoinNamed("cd", "cd", "sale", "listing",
			algebra.Select(algebra.MustParsePredicate("price < 15"), algebra.Data(sales...)),
			algebra.Data(listings...)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Evaluate(plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroGarageSaleGen(b *testing.B) {
	ns := workload.GarageSaleNamespace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sellers := workload.GarageSale(ns, workload.GarageSaleConfig{
			Seed: int64(i), Sellers: 64, ItemsPerSeller: 8, SpecialtyZipf: 1.3,
		})
		if len(sellers) != 64 {
			b.Fatal("bad generation")
		}
	}
}

// serializeDoc builds a representative wire document: nested elements,
// unsorted attributes, and text containing every escapable character, the
// same shape the simnet accounting layer serializes on every message.
func serializeDoc() *xmltree.Node {
	root := xmltree.Elem("mqp")
	root.SetAttr("target", "client:9020")
	root.SetAttr("id", "bench-1")
	for i := 0; i < 40; i++ {
		item := xmltree.Elem("item",
			xmltree.ElemText("title", fmt.Sprintf("Track %d <live> & \"remastered\"", i)),
			xmltree.ElemText("price", fmt.Sprintf("%d.99", i)),
			xmltree.ElemText("seller", fmt.Sprintf("s%d&co", i)))
		item.SetAttr("zip", fmt.Sprintf("97%03d", i))
		item.SetAttr("condition", "good>fair")
		root.Add(item)
	}
	return root
}

func BenchmarkCanonicalSerialize(b *testing.B) {
	doc := serializeDoc()
	b.SetBytes(int64(len(doc.String())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if doc.String() == "" {
			b.Fatal("empty serialization")
		}
	}
}

// BenchmarkByteSize sizes the serializeDoc payload frozen (the memo answers)
// and mutable (one arithmetic walk; a mutable tree memoizes nothing).
func BenchmarkByteSize(b *testing.B) {
	for _, tc := range []struct {
		name string
		doc  *xmltree.Node
	}{{"frozen", serializeDoc().Freeze()}, {"mutable", serializeDoc()}} {
		b.Run(tc.name, func(b *testing.B) {
			want := len(tc.doc.String())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.doc.ByteSize() != want {
					b.Fatal("size mismatch")
				}
			}
		})
	}
}

// planHopFixture builds a plan the way a forwarding hop owns one — decoded
// from the wire — carrying two data payloads, one unresolved URL leaf (so
// the plan is not constant), a retained original, and a three-visit
// provenance trail.
func planHopFixture(b testing.TB) (*algebra.Plan, []byte) {
	b.Helper()
	sales, listings := workload.CDCatalog(7, 40)
	plan := algebra.NewPlan("hop", "client:1", algebra.Display(
		algebra.Union(
			algebra.JoinNamed("cd", "cd", "sale", "listing",
				algebra.Data(sales...), algebra.Data(listings...)),
			algebra.URL("far:9020", "/data[id=7]"))))
	plan.RetainOriginal()
	key := []byte("bench-key")
	trail := &provenance.Trail{}
	for i, srv := range []string{"a:1", "b:1", "c:1"} {
		trail.Append(provenance.Visit{
			Server: srv, Action: provenance.ActionForward,
			At: time.Duration(i) * time.Millisecond,
		}, key)
	}
	provenance.ToPlan(plan, trail)
	p, err := algebra.DecodeString(algebra.EncodeString(plan))
	if err != nil {
		b.Fatal(err)
	}
	return p, key
}

// BenchmarkPlanHop measures one peer hop of a plan in flight at the document
// level: Marshal (the plan's frame staged, copied into one string and decoded,
// which a repeated frame makes an identical-frame cache hit), price the wire
// bytes, unmarshal at the receiver, stamp provenance, and Marshal the stamped
// plan to forward. Before Marshal was the frame decoded, this hop built two
// staging trees and serialized nothing; simnet paid the bytes per delivery,
// outside the benchmark.
func BenchmarkPlanHop(b *testing.B) {
	plan, key := planHopFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := algebra.Marshal(plan)
		if doc.ByteSize() == 0 {
			b.Fatal("empty wire doc")
		}
		p2, err := algebra.Unmarshal(doc)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := provenance.FromPlan(p2)
		if err != nil {
			b.Fatal(err)
		}
		tr.Append(provenance.Visit{
			Server: "hop:1", Action: provenance.ActionForward, At: time.Millisecond,
		}, key)
		provenance.ToPlan(p2, tr)
		out := algebra.Marshal(p2)
		if out.ByteSize() == 0 {
			b.Fatal("empty forwarded doc")
		}
	}
}

// BenchmarkDecode measures the zero-copy receive path: one slice-backed
// decode (xmltree.Decode) of a representative in-flight plan — data
// payloads, retained original, provenance trail — exactly what a peer pays
// per arriving frame it has never seen. The identical-frame cache is
// disabled so every iteration takes the cold materializing path; compare
// BenchmarkPlanHopWire for the warm (cached) hop, and internal/xmltree's
// BenchmarkParse against BenchmarkParseLegacy for the decoder against the
// encoding/xml reference it replaced.
func BenchmarkDecode(b *testing.B) {
	_, wire := planHopWireFixture(b)
	defer xmltree.SetFrameCacheLimit(xmltree.SetFrameCacheLimit(0))
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := xmltree.Decode(wire)
		if err != nil {
			b.Fatal(err)
		}
		if doc.Name != "mqp" {
			b.Fatal("bad decode")
		}
	}
}

// decodePlanWireFixture is a data-free plan frame: a plan shell of annotated
// <url> and <urn> leaves under one selection, its retained original, a
// visited section of a dozen records and a dozen-visit provenance trail. It
// is nearly all names and attribute values and carries no payload, the shape
// BenchmarkDecode's data documents hide.
func decodePlanWireFixture(b testing.TB) []byte {
	b.Helper()
	var leaves []*algebra.Node
	visited := algebra.NewVisited()
	trail := &provenance.Trail{}
	key := []byte("bench-key")
	for i := 0; i < 12; i++ {
		server := fmt.Sprintf("seller%03d:9020", i)
		urn := fmt.Sprintf("urn:InterestArea:(USA.OR.City%d,Music.CDs)", i)
		if i%2 == 0 {
			leaves = append(leaves, algebra.URN(urn))
		} else {
			leaves = append(leaves, algebra.URL(server, fmt.Sprintf("/data[id=%d]", i)).
				Annotate("origin-urn", urn).Annotate("source", server))
		}
		visited.Mark(server, uint64(i)*0x9e3779b97f4a7c15)
		trail.Append(provenance.Visit{
			Server: server, Action: provenance.ActionBind, Detail: urn,
			At: time.Duration(i) * time.Millisecond,
		}, key)
	}
	plan := algebra.NewPlan("area", "buyer:9020", algebra.Display(
		algebra.Select(algebra.MustParsePredicate("price < 24"), algebra.Union(leaves...))))
	plan.RetainOriginal()
	plan.Visited = visited
	provenance.ToPlan(plan, trail)
	return []byte(algebra.EncodeString(plan))
}

// BenchmarkDecodePlan is BenchmarkDecode on the attribute-heavy plan frame:
// the cold decode a routing hop pays for a plan that carries no data yet.
func BenchmarkDecodePlan(b *testing.B) {
	wire := decodePlanWireFixture(b)
	defer xmltree.SetFrameCacheLimit(xmltree.SetFrameCacheLimit(0))
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := xmltree.Decode(wire)
		if err != nil {
			b.Fatal(err)
		}
		if doc.Name != "mqp" {
			b.Fatal("bad decode")
		}
	}
}

// BenchmarkDecodeFreight decodes an area_fanout-shaped frame (freightWire:
// eight sellers' <data> leaves of 16 six-field items, a trail of 16 visits),
// the identical-frame cache off. Payload items are most of its bytes and,
// sealed, one node each.
func BenchmarkDecodeFreight(b *testing.B) {
	wire := []byte(freightWire(8, 16))
	defer xmltree.SetFrameCacheLimit(xmltree.SetFrameCacheLimit(0))
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := xmltree.Decode(wire)
		if err != nil {
			b.Fatal(err)
		}
		if doc.Name != "mqp" {
			b.Fatal("bad decode")
		}
	}
}

// planHopWireFixture is planHopFixture in its on-the-wire byte form.
func planHopWireFixture(b testing.TB) (*algebra.Plan, []byte) {
	b.Helper()
	plan, _ := planHopFixture(b)
	return plan, []byte(algebra.EncodeString(plan))
}

// BenchmarkPlanHopWire measures a full hop through the real codec, the way
// a forwarding peer now pays it: a fixed incoming frame arrives (forwarding
// fan-out and duplicated deliveries make identical frames the common case,
// so the decode is an identical-frame cache hit — hash, byte-compare, alias
// the frozen tree), the plan is unmarshaled into an arena-backed operator
// shell, provenance is stamped, and the forwarded frame is streamed out with
// no staging tree. The sender-side encode of the incoming frame is not in
// the loop: it was the previous hop's streamed encode, measured there.
func BenchmarkPlanHopWire(b *testing.B) {
	plan, key := planHopFixture(b)
	wire := algebra.EncodeString(plan)
	if _, err := xmltree.DecodeString(wire); err != nil { // prime the frame cache
		b.Fatal(err)
	}
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := xmltree.DecodeString(wire)
		if err != nil {
			b.Fatal(err)
		}
		p2, err := algebra.Unmarshal(doc)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := provenance.FromPlan(p2)
		if err != nil {
			b.Fatal(err)
		}
		tr.Append(provenance.Visit{
			Server: "hop:1", Action: provenance.ActionForward, At: time.Millisecond,
		}, key)
		provenance.ToPlan(p2, tr)
		if n, err := streamed(p2); err != nil || n == 0 {
			b.Fatalf("streamed %d bytes: %v", n, err)
		}
	}
}

// streamed writes p's frame out the way a link does: EncodeFrame into a pooled
// encoder, then one write of its buffer.
func streamed(p *algebra.Plan) (int, error) {
	enc := xmltree.GetFrameEncoder()
	defer enc.Release()
	algebra.EncodeFrame(p, enc)
	return io.Discard.Write(enc.Bytes())
}

// BenchmarkStreamEncode isolates the streaming frame encoder: canonical
// bytes from the plan tree into one buffer and out to a writer, frozen
// payload sections copied from their memoized serializations. Compare the
// EncodeString column of BenchmarkMicroPlanEncodeDecode for the staged
// path.
func BenchmarkStreamEncode(b *testing.B) {
	plan, _ := planHopFixture(b)
	b.SetBytes(int64(len(algebra.EncodeString(plan))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := streamed(plan); err != nil || n == 0 {
			b.Fatalf("streamed %d bytes: %v", n, err)
		}
	}
}

// BenchmarkPlanHopWireReused measures forwarding over the real transport on
// a warm persistent link: stage the plan with the streaming encoder and ship
// it to a sink peer as one vectored write (header and frame) on the pooled
// connection — the dial-per-hop cost the LinkPool removed is visible by
// comparison with a cold Send.
func BenchmarkPlanHopWireReused(b *testing.B) {
	received := make(chan struct{}, 1024)
	srv, err := wire.Listen("127.0.0.1:0", func(doc *xmltree.Node) (*xmltree.Node, error) {
		received <- struct{}{}
		return nil, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	pool := wire.NewLinkPool()
	defer pool.Close()
	plan, _ := planHopFixture(b)
	send := func() {
		if err := pool.SendFrame(srv.Addr(), func(e *xmltree.FrameEncoder) {
			algebra.EncodeFrame(plan, e)
		}); err != nil {
			b.Fatal(err)
		}
	}
	send()
	<-received // link warm, first frame processed
	b.SetBytes(int64(len(algebra.EncodeString(plan))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
		<-received
	}
}

// BenchmarkPlanClone measures duplicating an in-flight plan (retained
// originals, result snapshots, catalog binding copies).
func BenchmarkPlanClone(b *testing.B) {
	plan, _ := planHopFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan.Clone() == nil {
			b.Fatal("nil clone")
		}
	}
}

// TestBenchmarksSmoke keeps the experiment benchmarks honest under plain
// `go test`: every benchmark body must run once without error. The parallel
// runner mirrors how cmd/experiments executes them.
func TestBenchmarksSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments already covered by internal/experiments -short run")
	}
	for _, res := range experiments.RunAll(experiments.All(false), 0) {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Runner.ID, res.Err)
		}
	}
}
