package peer

import (
	"errors"
	"fmt"
	"log"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/blobstore"
	"repro/internal/catalog"
	"repro/internal/namespace"
	"repro/internal/simnet"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// fabric is one way of connecting test peers. Every test in this file builds
// its world once per entry of fabrics and requires the same answer of each:
// the peer is one program, and which Transport carries its messages must not
// show in what it computes.
type fabric struct {
	name string
	// join makes the Transport and the address of one more peer.
	join func(t *testing.T, name string) (Transport, string)
	// nobody returns an address nothing answers on.
	nobody func(t *testing.T, name string) string
}

func fabrics() []fabric {
	sim := simnet.New()
	return []fabric{
		{"simnet",
			func(_ *testing.T, name string) (Transport, string) { return sim, name + ":9020" },
			func(_ *testing.T, name string) string { return name + ":9020" }},
		{"tcp",
			func(t *testing.T, _ string) (Transport, string) {
				tcp := listenTCP(t)
				return tcp, tcp.Addr()
			},
			func(t *testing.T, _ string) string {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close() // a closed port: dials are refused
				return ln.Addr().String()
			}},
	}
}

func listenTCP(t *testing.T) *TCP {
	t.Helper()
	tcp := NewTCP()
	if err := tcp.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcp.Close() })
	return tcp
}

// world builds peers on one fabric.
type world struct {
	t  *testing.T
	f  fabric
	ns *namespace.Namespace
}

// peer adds a peer: the fabric supplies Net and Addr, the name the key.
func (w world) peer(name string, cfg Config) *Peer {
	w.t.Helper()
	cfg.Net, cfg.Addr = w.f.join(w.t, name)
	cfg.NS, cfg.Key = w.ns, []byte("k-"+name)
	return mustPeer(w.t, cfg)
}

// eventually waits for cond: no time at all on simnet, where delivery is a
// function call, and until the frame has been handled on TCP.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func awaitResult(t *testing.T, p *Peer) Result {
	t.Helper()
	var res Result
	eventually(t, "a result at "+p.Addr(), func() (ok bool) {
		res, ok = p.TakeResult()
		return ok
	})
	return res
}

// heard waits until c has taken in a registration pushed after gen was read.
func heard(t *testing.T, c *catalog.Catalog, gen uint64) {
	t.Helper()
	eventually(t, "a pushed registration", func() bool { return c.Generation() > gen })
}

// outcome is what the two transports must agree on: the result items, the
// actions along the trail in order, and how many servers the plan stopped
// at. Addresses differ between the fabrics and every visit's HMAC covers its
// server's address, so signatures are not compared — shape is.
type outcome struct {
	items   []string
	actions string
	stops   int
	extra   string
}

func outcomeOf(t *testing.T, res Result) outcome {
	t.Helper()
	got, err := res.Plan.Results()
	if err != nil {
		t.Fatal(err)
	}
	var o outcome
	for _, it := range got {
		o.items = append(o.items, it.String())
	}
	sort.Strings(o.items)
	trail, err := QueryTrail(res)
	if err != nil {
		t.Fatal(err)
	}
	var actions []string
	last := ""
	for _, v := range trail.Visits {
		actions = append(actions, string(v.Action))
		if v.Server != last {
			o.stops++
			last = v.Server
		}
	}
	o.actions = strings.Join(actions, " ")
	return o
}

// joinWorld is the Fig. 3 join as cmd/mqpd's doc comment wires it: an alias
// server that only binds the two URNs, a CD server, a track-listing server
// and a client.
func joinWorld(t *testing.T, f fabric) outcome {
	w := world{t, f, workload.GarageSaleNamespace()}
	alias := w.peer("alias", Config{PushSelect: true})
	cds := w.peer("cds", Config{PushSelect: true})
	tracks := w.peer("tracks", Config{PushSelect: true})
	client := w.peer("client", Config{})

	var sales, listings []string
	for i := 0; i < 8; i++ { // five CDs under 10, two songs each
		sales = append(sales, fmt.Sprintf(`<sale><cd>cd-%d</cd><price>%d</price></sale>`, i, 5+i))
		for s := 0; s < 2; s++ {
			listings = append(listings, fmt.Sprintf(`<listing><cd>cd-%d</cd><song>song-%d-%d</song></listing>`, i, i, s))
		}
	}
	cds.AddCollection(Collection{Name: "cds", PathExp: "/data", Items: items(sales...)})
	tracks.AddCollection(Collection{Name: "tracks", PathExp: "/data", Items: items(listings...)})
	alias.Catalog().AddAlias("urn:Demo:CDs", "http://"+cds.Addr()+"/data")
	alias.Catalog().AddAlias("urn:Demo:Tracks", "http://"+tracks.Addr()+"/data")

	plan := algebra.NewPlan("join-q", client.Addr(), algebra.Display(
		algebra.JoinNamed("cd", "cd", "sale", "listing",
			algebra.Select(algebra.MustParsePredicate("price < 10"), algebra.URN("urn:Demo:CDs")),
			algebra.URN("urn:Demo:Tracks"))))
	plan.RetainOriginal()
	if err := client.Submit(alias.Addr(), plan); err != nil {
		t.Fatal(err)
	}
	o := outcomeOf(t, awaitResult(t, client))
	if len(o.items) != 10 {
		t.Fatalf("join returned %d items, want 10", len(o.items))
	}
	return o
}

// areaWorld is an area selection through an authoritative index that learned
// one seller from a pushed registration (a one-way frame) and one by
// harvesting it (an export call), beside a replica made by a fetch call.
func areaWorld(t *testing.T, f fabric) outcome {
	w := world{t, f, testNS()}
	pdxCDs := w.ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
	usa := w.ns.MustParseArea("[USA, *]")
	meta := w.peer("M", Config{PushSelect: true, Area: usa, Authoritative: true})
	s1 := w.peer("s1", Config{PushSelect: true, Area: pdxCDs})
	s2 := w.peer("s2", Config{PushSelect: true, Area: pdxCDs})
	replica := w.peer("replica", Config{PushSelect: true, Area: pdxCDs})
	client := w.peer("client", Config{})

	s1.AddCollection(Collection{Name: "cds", PathExp: "/data[id=1]", Area: pdxCDs, Items: items(
		`<sale><cd>Blue Train</cd><price>8</price></sale>`,
		`<sale><cd>Kind of Blue</cd><price>15</price></sale>`)})
	s2.AddCollection(Collection{Name: "cds", PathExp: "/data[id=2]", Area: pdxCDs, Items: items(
		`<sale><cd>Giant Steps</cd><price>9</price></sale>`,
		`<sale><cd>Naima</cd><price>7</price></sale>`)})

	gen := meta.Catalog().Generation()
	if err := s1.RegisterWith(meta.Addr(), catalog.RoleBase); err != nil {
		t.Fatal(err)
	}
	heard(t, meta.Catalog(), gen)
	if err := meta.Harvest(s2.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := replica.ReplicateFrom(s2.Addr(), "/data[id=2]",
		Collection{Name: "copy", PathExp: "/copy", Area: pdxCDs}, 30); err != nil {
		t.Fatal(err)
	}
	if err := client.Catalog().Register(catalog.Registration{
		Addr: meta.Addr(), Role: catalog.RoleMetaIndex, Area: usa, Authoritative: true,
	}); err != nil {
		t.Fatal(err)
	}

	plan := algebra.NewPlan("area-q", client.Addr(), algebra.Display(
		algebra.Select(algebra.MustParsePredicate("price < 10"), algebra.URN(namespace.EncodeURN(pdxCDs)))))
	plan.RetainOriginal()
	if err := client.Submit(client.Addr(), plan); err != nil {
		t.Fatal(err)
	}
	o := outcomeOf(t, awaitResult(t, client))
	if len(o.items) != 3 {
		t.Fatalf("selection returned %d items, want 3", len(o.items))
	}
	copied, _ := replica.Collection("/copy")
	for _, it := range copied.Items {
		o.extra += it.String()
	}
	o.extra += fmt.Sprint(" staleness=", copied.StalenessMin)
	return o
}

// copyWorld is a §4.3 replica made by a fetch call. Its items equal the
// source's and are frozen, and they are decoded copies, not the source's
// nodes: what a peer receives is a frame on either transport.
func copyWorld(t *testing.T, f fabric) outcome {
	w := world{t, f, testNS()}
	src := w.peer("src", Config{})
	replica := w.peer("replica", Config{})
	src.AddCollection(Collection{Name: "cds", PathExp: "/d", Items: items(
		`<sale><cd>Blue Train</cd><price>8</price></sale>`,
		`<sale><cd>Naima</cd><price>7</price></sale>`)})
	if err := replica.ReplicateFrom(src.Addr(), "/d", Collection{Name: "copy", PathExp: "/copy"}, 30); err != nil {
		t.Fatal(err)
	}
	want, _ := src.Collection("/d")
	got, _ := replica.Collection("/copy")
	if len(got.Items) != len(want.Items) || got.StalenessMin != 30 {
		t.Fatalf("replica holds %d items at staleness %d, want %d at 30", len(got.Items), got.StalenessMin, len(want.Items))
	}
	var o outcome
	for i, it := range got.Items {
		if !xmltree.Equal(it, want.Items[i]) || !it.Frozen() || it == want.Items[i] {
			t.Fatalf("replica item %d is %s (frozen %v, the source's node %v), want a frozen copy of %s",
				i, it, it.Frozen(), it == want.Items[i], want.Items[i])
		}
		o.items = append(o.items, it.String())
	}
	return o
}

// TestSameAnswerOnBothTransports is the transport differential (TESTING.md,
// "Transports"): one world, built over simnet and over loopback TCP in one
// process, must give the same outcome.
func TestSameAnswerOnBothTransports(t *testing.T) {
	for _, wc := range []struct {
		name  string
		build func(*testing.T, fabric) outcome
	}{{"join", joinWorld}, {"area", areaWorld}, {"replica", copyWorld}} {
		t.Run(wc.name, func(t *testing.T) {
			var want outcome
			for i, f := range fabrics() {
				got := wc.build(t, f)
				t.Logf("%s: %d items, %d stops, trail %s", f.name, len(got.items), got.stops, got.actions)
				if i == 0 {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s differs from simnet:\n got %+v\nwant %+v", f.name, got, want)
				}
			}
		})
	}
}

// TestFallbackOnBothTransports: a next hop that cannot be reached is the
// same event on both transports — the plan falls through to the next
// candidate, and a plan with no live candidate is one stuck record naming it,
// after which the peer still answers.
func TestFallbackOnBothTransports(t *testing.T) {
	for _, f := range fabrics() {
		t.Run(f.name, func(t *testing.T) {
			w := world{t, f, testNS()}
			pdxCDs := w.ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
			usa := w.ns.MustParseArea("[USA, *]")
			meta := w.peer("M", Config{PushSelect: true, Area: usa, Authoritative: true})
			s1 := w.peer("s1", Config{PushSelect: true, Area: pdxCDs})
			s1.AddCollection(Collection{Name: "cds", PathExp: "/data[id=1]", Area: pdxCDs, Items: items(
				`<sale><cd>Blue Train</cd><price>8</price></sale>`,
				`<sale><cd>Kind of Blue</cd><price>15</price></sale>`)})
			gen := meta.Catalog().Generation()
			if err := s1.RegisterWith(meta.Addr(), catalog.RoleBase); err != nil {
				t.Fatal(err)
			}
			heard(t, meta.Catalog(), gen)

			client := w.peer("client", Config{})
			knows := func(addr string) {
				t.Helper()
				if err := client.Catalog().Register(catalog.Registration{
					Addr: addr, Role: catalog.RoleMetaIndex, Area: usa, Authoritative: true,
				}); err != nil {
					t.Fatal(err)
				}
			}
			count := func(id string) *algebra.Plan {
				return algebra.NewPlan(id, client.Addr(), algebra.Display(
					algebra.Count(algebra.URN(namespace.EncodeURN(pdxCDs)))))
			}

			// Every candidate dead: on simnet the submitter hears it at once,
			// on TCP the frame was written and the failure is the peer's
			// record. Either way it is recorded once, under the plan's id.
			dead1, dead2 := f.nobody(t, "dead1"), f.nobody(t, "dead2")
			knows(dead1)
			knows(dead2)
			_ = client.Submit(client.Addr(), count("doomed-q"))
			eventually(t, "the stuck record", func() bool { return len(client.StuckErrors()) > 0 })
			stuck := client.StuckErrors()
			if len(stuck) != 1 || !strings.Contains(stuck[0].Error(), `"doomed-q"`) ||
				!errors.As(stuck[0], new(simnet.ErrUnreachable)) {
				t.Fatalf("stuck = %v, want one unreachable entry naming \"doomed-q\"", stuck)
			}

			// A live candidate behind the two dead ones: the next query falls
			// through to it.
			knows(meta.Addr())
			if err := client.Submit(client.Addr(), count("fallback-q")); err != nil {
				t.Fatal(err)
			}
			res := awaitResult(t, client)
			got, err := res.Plan.Results()
			if err != nil || got[0].InnerText() != "2" {
				t.Fatalf("count = %v %v", got, err)
			}
			if trail, _ := QueryTrail(res); !trail.Visited(meta.Addr()) || trail.Visited(dead1) {
				t.Fatalf("trail = %+v", trail.Visits)
			}

			// Calls draw the same line: nobody there is unreachable, a handler
			// that refuses is not.
			if err := client.Harvest(dead1); !errors.As(err, new(simnet.ErrUnreachable)) {
				t.Fatalf("harvest of a dead peer: %v, want ErrUnreachable", err)
			}
			_, _, err = client.net.Request(&simnet.Message{From: client.Addr(), To: meta.Addr(), Kind: "nosuchkind"},
				xmltree.Elem("nosuchkind").Stage)
			if err == nil || errors.As(err, new(simnet.ErrUnreachable)) {
				t.Fatalf("a request kind no peer serves: %v, want the handler's failure", err)
			}
		})
	}
}

// TestOversizedForwardIsStuck: on both transports, a plan that materialized a
// local collection past xmltree.MaxFrameBytes and must still travel for the
// rest cannot be framed for any next hop. The forwarding peer records it as
// stuck under the plan's id, wrapping xmltree.ErrFrame, and tries no other
// candidate.
func TestOversizedForwardIsStuck(t *testing.T) {
	for _, f := range fabrics() {
		t.Run(f.name, func(t *testing.T) {
			w := world{t, f, testNS()}
			big := w.peer("big", Config{})
			rest := w.peer("rest", Config{})
			docs := make([]*xmltree.Node, 0, 1100)
			for size := 0; size <= xmltree.MaxFrameBytes; size += 8 << 10 {
				docs = append(docs, xmltree.ElemText("item", strings.Repeat("x", 8<<10)))
			}
			big.AddCollection(Collection{Name: "big", PathExp: "/data", Items: docs})
			rest.AddCollection(Collection{Name: "rest", PathExp: "/data", Items: items(`<item>y</item>`)})

			plan := algebra.NewPlan("oversized-q", big.Addr(), algebra.Display(algebra.Union(
				algebra.URL(big.Addr(), "/data"), algebra.URL(rest.Addr(), "/data"))))
			// simnet delivers inline, so the forward's failure also comes back
			// to the submitter.
			if err := big.Submit(big.Addr(), plan); err != nil && !errors.Is(err, xmltree.ErrFrame) {
				t.Fatal(err)
			}
			eventually(t, "the stuck record", func() bool { return len(big.StuckErrors()) > 0 })
			stuck := big.StuckErrors()
			if len(stuck) != 1 || !strings.Contains(stuck[0].Error(), `"oversized-q"`) || !errors.Is(stuck[0], xmltree.ErrFrame) {
				t.Fatalf("stuck = %v, want one frame-limit entry naming \"oversized-q\"", stuck)
			}
		})
	}
}

// bare stands in front of a peer without declaring a capability byte, the
// way a tracing proxy does.
type bare struct{ simnet.Peer }

// TestPayloadCapabilityOnBothTransports is the capability differential: a
// store-bearing seller answers a store-bearing client's repeated query alike
// on both transports, and ships the repeat by reference only where the
// transport reports the client's store. simnet reports the byte a peer
// declared when added, and keeps it when a wrapper that declares none takes
// the peer's place; TCP advertises nothing yet, so payloads stay inline.
func TestPayloadCapabilityOnBothTransports(t *testing.T) {
	var want []outcome
	for _, f := range fabrics() {
		t.Run(f.name, func(t *testing.T) {
			w := world{t, f, testNS()}
			seller := w.peer("seller", Config{Blobs: blobstore.New()})
			client := w.peer("client", Config{Blobs: blobstore.New()})
			plain := w.peer("plain", Config{})
			seller.AddCollection(Collection{Name: "cds", PathExp: "/data", Items: items(
				bigSale("Blue Train", 8), bigSale("Giant Steps", 9), bigSale("Kind of Blue", 15))})
			sim, onSim := client.net.(*simnet.Network)
			if onSim {
				sim.Add(bare{client})
				for addr, c := range map[string]byte{client.Addr(): wire.CapBlobRef, plain.Addr(): 0} {
					if caps, err := sim.PeerCaps(addr); err != nil || caps != c {
						t.Fatalf("PeerCaps(%s) = %#x, %v; want %#x", addr, caps, err, c)
					}
				}
			}

			var got []outcome
			for _, id := range []string{"cap-q1", "cap-q2"} {
				plan := algebra.NewPlan(id, client.Addr(), algebra.Display(algebra.Select(
					algebra.MustParsePredicate("price < 10"), algebra.URL("http://"+seller.Addr(), "/data"))))
				if err := client.Submit(seller.Addr(), plan); err != nil {
					t.Fatal(err)
				}
				got = append(got, outcomeOf(t, awaitResult(t, client)))
			}
			if len(got[1].items) != 2 {
				t.Fatalf("repeat returned %d items, want 2", len(got[1].items))
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s differs from simnet:\n got %+v\nwant %+v", f.name, got, want)
			}
			if n := seller.BlobNetStats().ByRefSent; onSim != (n > 0) {
				t.Fatalf("seller sent %d payloads by reference on %s", n, f.name)
			}
		})
	}
}

// syncBuffer is a log destination handlers on several goroutines may write.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestTCPLogsPlansOnArrival: over TCP a peer logs one `plan <id>` line per
// <mqp> frame it receives — the submission, each forward, the result — and
// none for a registration.
func TestTCPLogsPlansOnArrival(t *testing.T) {
	var logged syncBuffer
	defer log.SetOutput(log.Writer())
	defer log.SetFlags(log.Flags())
	log.SetOutput(&logged)
	log.SetFlags(0)

	w := world{t, fabrics()[1], testNS()}
	pdxCDs := w.ns.MustParseArea("[USA/OR/Portland, Music/CDs]")
	usa := w.ns.MustParseArea("[USA, *]")
	meta := w.peer("M", Config{PushSelect: true, Area: usa, Authoritative: true})
	s1 := w.peer("s1", Config{PushSelect: true, Area: pdxCDs})
	s1.AddCollection(Collection{Name: "cds", PathExp: "/data[id=1]", Area: pdxCDs, Items: items(
		`<sale><cd>Blue Train</cd><price>8</price></sale>`)})
	gen := meta.Catalog().Generation()
	if err := s1.RegisterWith(meta.Addr(), catalog.RoleBase); err != nil {
		t.Fatal(err)
	}
	heard(t, meta.Catalog(), gen)
	if got := logged.String(); got != "" {
		t.Fatalf("a registration logged %q", got)
	}

	client := w.peer("client", Config{})
	if err := client.Catalog().Register(catalog.Registration{
		Addr: meta.Addr(), Role: catalog.RoleMetaIndex, Area: usa, Authoritative: true,
	}); err != nil {
		t.Fatal(err)
	}
	plan := algebra.NewPlan("logged-q", client.Addr(), algebra.Display(
		algebra.Count(algebra.URN(namespace.EncodeURN(pdxCDs)))))
	if err := client.Submit(client.Addr(), plan); err != nil {
		t.Fatal(err)
	}
	awaitResult(t, client)
	// client → client (the submission), → M, → s1, and the result → client.
	if got, want := logged.String(), strings.Repeat("plan logged-q\n", 4); got != want {
		t.Fatalf("logged %q, want %q", got, want)
	}
}

// TestTCPHostileFrames: a frame before the peer is attached, a document of
// no known kind and an <mqp> that is not a plan are each one error on
// Errors(), and the peer answers the next query.
func TestTCPHostileFrames(t *testing.T) {
	tcp := listenTCP(t)
	pool := wire.NewLinkPool()
	defer pool.Close()
	oneError := func(doc *xmltree.Node, want string) {
		t.Helper()
		if err := pool.SendFrame(tcp.Addr(), func(e *xmltree.FrameEncoder) { e.Node(doc) }); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-tcp.Errors():
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q, want one about %q", err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no error about %q", want)
		}
	}
	oneError(xmltree.Elem("mqp"), "before a peer is attached")

	ns := testNS()
	p := mustPeer(t, Config{Addr: tcp.Addr(), Net: tcp, NS: ns, Key: []byte("k")})
	p.AddCollection(Collection{Name: "c", PathExp: "/d", Items: items(`<item><n>1</n></item>`)})
	oneError(xmltree.Elem("bogus"), `unknown request kind "bogus"`)
	oneError(xmltree.Elem("mqp"), "bad mqp")

	plan := algebra.NewPlan("next-q", p.Addr(), algebra.Display(
		algebra.Count(algebra.URL("http://"+p.Addr(), "/d"))))
	if err := p.Submit(p.Addr(), plan); err != nil {
		t.Fatal(err)
	}
	if got, err := awaitResult(t, p).Plan.Results(); err != nil || got[0].InnerText() != "1" {
		t.Fatalf("count = %v %v", got, err)
	}
	select {
	case err := <-tcp.Errors():
		t.Fatalf("a fourth error: %v", err)
	default:
	}
}
