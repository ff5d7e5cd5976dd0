package wire

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/hierarchy"
	"repro/internal/mqp"
	"repro/internal/namespace"
	"repro/internal/xmltree"
)

// node stages doc as one frame.
func node(doc *xmltree.Node) func(*xmltree.FrameEncoder) {
	return func(e *xmltree.FrameEncoder) { e.Node(doc) }
}

func TestSendReceive(t *testing.T) {
	got := make(chan *xmltree.Node, 1)
	srv, err := Listen("127.0.0.1:0", func(doc *xmltree.Node) (*xmltree.Node, error) {
		got <- doc
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pool := NewLinkPool()
	defer pool.Close()
	want := xmltree.MustParse(`<hello who="world"/>`)
	if err := pool.SendFrame(srv.Addr(), node(want)); err != nil {
		t.Fatal(err)
	}
	select {
	case doc := <-got:
		if !xmltree.Equal(doc, want) {
			t.Fatalf("received %s", doc)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
}

func TestSendToNowhere(t *testing.T) {
	pool := NewLinkPool()
	defer pool.Close()
	if err := pool.SendFrame("127.0.0.1:1", node(xmltree.Elem("x"))); err == nil {
		t.Fatal("dial to closed port must error")
	}
}

func TestHandlerErrorReported(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", func(doc *xmltree.Node) (*xmltree.Node, error) {
		return nil, fmt.Errorf("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewLinkPool()
	defer pool.Close()
	if err := pool.SendFrame(srv.Addr(), node(xmltree.Elem("x"))); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-srv.Errors():
		if err == nil {
			t.Fatal("expected handler error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for error")
	}
}

// TestRealTCPRegistration pushes a registration document over TCP and
// verifies the receiving catalog accepted it.
func TestRealTCPRegistration(t *testing.T) {
	loc := hierarchy.New("Location")
	loc.MustAdd("USA/OR/Portland")
	merch := hierarchy.New("Merchandise")
	merch.MustAdd("Music/CDs")
	ns := namespace.MustNew(loc, merch)
	cat := catalog.New(ns, "idx")

	accepted := make(chan struct{}, 1)
	srv, err := Listen("127.0.0.1:0", func(doc *xmltree.Node) (*xmltree.Node, error) {
		reg, err := catalog.UnmarshalRegistration(ns, doc)
		if err != nil {
			return nil, err
		}
		if err := cat.Register(reg); err != nil {
			return nil, err
		}
		accepted <- struct{}{}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	area := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
	reg := catalog.Registration{
		Addr: "seller:9020", Role: catalog.RoleBase, Area: area,
		Collections: []catalog.Collection{{Name: "cds", PathExp: "/d", Area: area}},
	}
	pool := NewLinkPool()
	defer pool.Close()
	if err := pool.SendFrame(srv.Addr(), node(catalog.MarshalRegistration(reg))); err != nil {
		t.Fatal(err)
	}
	select {
	case <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("registration not accepted")
	}
	if got := cat.Registrations(); len(got) != 1 || got[0].Addr != "seller:9020" {
		t.Fatalf("registrations = %+v", got)
	}
	b, err := cat.Resolve(namespace.EncodeURN(area))
	if err != nil || b.Expr == nil {
		t.Fatalf("binding after TCP registration: %+v, %v", b, err)
	}
}

// TestRealTCPMQPChain runs a two-server MQP evaluation over actual TCP
// sockets: the same processor code as the simulation, real transport.
func TestRealTCPMQPChain(t *testing.T) {
	loc := hierarchy.New("Location")
	loc.MustAdd("USA/OR/Portland")
	merch := hierarchy.New("Merchandise")
	merch.MustAdd("Music/CDs")
	ns := namespace.MustNew(loc, merch)

	items := []*xmltree.Node{
		xmltree.MustParse(`<sale><cd>A</cd><price>5</price></sale>`),
		xmltree.MustParse(`<sale><cd>B</cd><price>20</price></sale>`),
	}

	// Result sink (plays mqpquery's role).
	results := make(chan *algebra.Plan, 1)
	sink, err := Listen("127.0.0.1:0", func(doc *xmltree.Node) (*xmltree.Node, error) {
		p, err := algebra.Unmarshal(doc)
		if err != nil {
			return nil, err
		}
		results <- p
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	// Every server forwards the way cmd/mqpd does: one pooled link per
	// downstream peer, the plan streamed through algebra.EncodeFrame.
	pool := NewLinkPool()
	defer pool.Close()
	send := func(dest string, plan *algebra.Plan) error {
		return pool.SendFrame(dest, func(e *xmltree.FrameEncoder) { algebra.EncodeFrame(plan, e) })
	}
	serve := func(proc **mqp.Processor) Handler {
		return func(doc *xmltree.Node) (*xmltree.Node, error) {
			plan, err := algebra.Unmarshal(doc)
			if err != nil {
				return nil, err
			}
			out, err := (*proc).Step(plan)
			if err != nil {
				return nil, err
			}
			dest := out.NextHop
			if out.Done {
				dest = plan.Target
			}
			return nil, send(dest, plan)
		}
	}

	// Base server with data; address known only after listen, so bind the
	// processor lazily.
	var baseProc *mqp.Processor
	base, err := Listen("127.0.0.1:0", serve(&baseProc))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	baseProc, err = mqp.New(mqp.Config{
		Self:    base.Addr(),
		Catalog: catalog.New(ns, base.Addr()),
		FetchLocal: func(_ *mqp.StepContext, _ string, pathExp string) ([]*xmltree.Node, int, error) {
			return items, 0, nil
		},
		PushSelect: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Meta server with the alias to the base server.
	metaCat := catalog.New(ns, "meta")
	metaCat.AddAlias("urn:Demo:CDs", "http://"+base.Addr()+"/data")
	var metaProc *mqp.Processor
	meta, err := Listen("127.0.0.1:0", serve(&metaProc))
	if err != nil {
		t.Fatal(err)
	}
	defer meta.Close()
	metaProc, err = mqp.New(mqp.Config{Self: meta.Addr(), Catalog: metaCat, PushSelect: true})
	if err != nil {
		t.Fatal(err)
	}

	plan := algebra.NewPlan("tcp-q", sink.Addr(), algebra.Display(
		algebra.Select(algebra.MustParsePredicate("price < 10"), algebra.URN("urn:Demo:CDs"))))
	if err := send(meta.Addr(), plan); err != nil {
		t.Fatal(err)
	}

	select {
	case res := <-results:
		got, err := res.Results()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Value("cd") != "A" {
			t.Fatalf("results = %v", got)
		}
	case err := <-sink.Errors():
		t.Fatal(err)
	case err := <-base.Errors():
		t.Fatal(err)
	case err := <-meta.Errors():
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for TCP MQP result")
	}
}
