package peer

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/blobstore"
	"repro/internal/catalog"
	"repro/internal/mqp"
	"repro/internal/namespace"
	"repro/internal/simnet"
	"repro/internal/xmltree"
)

// runtimeWorld builds the smallest concurrent-runtime topology: one
// authoritative server that is its own index (bench's point_hot shape) and a
// bare client that receives results. The server's worker, cache and policy
// knobs come from cfg; its address, area and catalog are fixed.
func runtimeWorld(t *testing.T, cfg Config) (client, srv *Peer) {
	t.Helper()
	net := simnet.New()
	ns := testNS()
	area := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")

	cfg.Addr = "srv:9020"
	cfg.Net = net
	cfg.NS = ns
	cfg.Area = area
	cfg.Authoritative = true
	cfg.PushSelect = true
	srv = mustPeer(t, cfg)
	srv.AddCollection(Collection{Name: "cds", PathExp: "/data[id=1]", Area: area, Items: items(
		`<sale><cd>Blue Train</cd><price>8</price></sale>`,
		`<sale><cd>Kind of Blue</cd><price>15</price></sale>`,
		`<sale><cd>Giant Steps</cd><price>9</price></sale>`,
	)})
	if err := srv.RegisterWith("srv:9020", catalog.RoleBase); err != nil {
		t.Fatal(err)
	}
	srv.Catalog().AddAlias("urn:RT:CDs", namespace.EncodeURN(area))

	client = mustPeer(t, Config{Addr: "client:9020", Net: net, NS: ns})
	return client, srv
}

func rtPlan(id string) *algebra.Plan {
	sel := algebra.Select(algebra.MustParsePredicate("price < 10"),
		algebra.URN("urn:RT:CDs"))
	return algebra.NewPlan(id, "client:9020", algebra.Display(sel))
}

// waitResults polls until the client holds n results or the deadline hits.
func waitResults(t *testing.T, client *Peer, n int) []Result {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rs := client.Results()
		if len(rs) >= n {
			return rs
		}
		if time.Now().After(deadline) {
			t.Fatalf("results = %d, want %d", len(rs), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// submitBurst starts submitters goroutines that each submit plansEach plans to
// the server, and returns the group to wait on.
func submitBurst(t *testing.T, client *Peer, submitters, plansEach int) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(submitters)
	for s := 0; s < submitters; s++ {
		go func(s int) {
			defer wg.Done()
			for i := 0; i < plansEach; i++ {
				if err := client.Submit("srv:9020", rtPlan(fmt.Sprintf("b%d-%d", s, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	return &wg
}

// TestWorkerPoolDelivery drives a worker-pool server from concurrent
// submitters: every plan must come back as a complete (non-partial) result
// with the same answer synchronous processing gives. The queue is sized to
// hold the whole burst — whether shedding kicks in at the default depth is
// a scheduling race (the workers may drain arbitrarily slowly, e.g. under
// -race); admission control has its own test below.
func TestWorkerPoolDelivery(t *testing.T) {
	client, srv := runtimeWorld(t, Config{PlanCacheSize: 16})
	srv.rt = newRuntime(srv, 4, 128)
	defer srv.Close()

	const submitters, plansEach = 4, 16
	submitBurst(t, client, submitters, plansEach).Wait()

	rs := waitResults(t, client, submitters*plansEach)
	for _, r := range rs {
		if r.Partial {
			t.Fatalf("plan %s: partial (reason %q)", r.Plan.ID, r.Plan.PartialReason())
		}
		docs, err := r.Plan.Results()
		if err != nil {
			t.Fatal(err)
		}
		if len(docs) != 2 {
			t.Fatalf("plan %s: %d results, want 2", r.Plan.ID, len(docs))
		}
	}
	if errs := srv.StuckErrors(); len(errs) != 0 {
		t.Fatalf("stuck errors: %v", errs)
	}
}

// TestAdmissionControlSheds fills the frame queue with no workers draining
// it (a runtime wired by hand), so the admission decision is deterministic:
// the queued plan waits, the overflow plan comes back immediately as a
// partial annotated "admission", and closing the runtime drains the queue
// into "shutdown" partials. No plan vanishes.
func TestAdmissionControlSheds(t *testing.T) {
	client, srv := runtimeWorld(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	srv.rt = &runtime{p: srv, queue: make(chan *simnet.Message, 1), ctx: ctx, cancel: cancel}

	if err := client.Submit("srv:9020", rtPlan("adm1")); err != nil {
		t.Fatal(err)
	}
	if got := len(client.Results()); got != 0 {
		t.Fatalf("queued plan answered early: %d results", got)
	}
	if err := client.Submit("srv:9020", rtPlan("adm2")); err != nil {
		t.Fatal(err)
	}
	rs := client.Results()
	if len(rs) != 1 || !rs[0].Partial || rs[0].Plan.PartialReason() != "admission" {
		t.Fatalf("overflow result = %+v", rs)
	}
	if rs[0].Plan.ID != "adm2" {
		t.Fatalf("shed the wrong plan: %s", rs[0].Plan.ID)
	}
	if got := srv.rt.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}

	// Close drains the queue: the waiting plan is rejected, not dropped.
	srv.Close()
	rs = waitResults(t, client, 2)
	if rs[1].Plan.ID != "adm1" || rs[1].Plan.PartialReason() != "shutdown" {
		t.Fatalf("drained result = %s (reason %q)", rs[1].Plan.ID, rs[1].Plan.PartialReason())
	}

	// After shutdown, new arrivals are rejected at the door.
	if err := client.Submit("srv:9020", rtPlan("adm3")); err != nil {
		t.Fatal(err)
	}
	rs = waitResults(t, client, 3)
	if rs[2].Plan.PartialReason() != "shutdown" {
		t.Fatalf("post-close reason = %q, want shutdown", rs[2].Plan.PartialReason())
	}
}

// lateClose is a context whose Err closes the runtime (once: close is
// idempotent) after reading the answer: a Close that lands between enqueue's
// check and its push, every time.
type lateClose struct {
	context.Context
	rt *runtime
}

func (c lateClose) Err() error {
	err := c.Context.Err()
	c.rt.close()
	return err
}

// TestCloseLosesNoPlan: a plan submitted while the runtime closes ends as a
// result or a "shutdown" partial, never in a queue nobody reads any more.
// First the interleaving by hand — enqueue sees an open runtime, Close
// cancels, waits and drains, the push lands — then the race as it happens,
// submitters against a Close, which loses a plan about once in a thousand rounds
// without the re-check in enqueue.
func TestCloseLosesNoPlan(t *testing.T) {
	client, srv := runtimeWorld(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	srv.rt = &runtime{p: srv, queue: make(chan *simnet.Message, 1), cancel: cancel}
	srv.rt.ctx = lateClose{ctx, srv.rt}
	if err := client.Submit("srv:9020", rtPlan("late")); err != nil {
		t.Fatal(err)
	}
	if rs := client.Results(); len(rs) != 1 || rs[0].Plan.PartialReason() != "shutdown" {
		t.Fatalf("plan pushed after the drain: %d results, %d still queued", len(rs), len(srv.rt.queue))
	}

	const submitters, plansEach, rounds = 4, 40, 150
	for round := 0; round < rounds; round++ {
		client, srv := runtimeWorld(t, Config{Workers: 2})
		burst := submitBurst(t, client, submitters, plansEach)
		waitResults(t, client, 3)
		srv.Close()
		burst.Wait()
		if got := len(client.Results()) + len(srv.StuckErrors()); got != submitters*plansEach {
			t.Fatalf("round %d: %d of %d plans accounted for, %d left in the queue",
				round, got, submitters*plansEach, len(srv.rt.queue))
		}
	}
}

// slowPeer answers every request only once released, and records the plans
// delivered to it.
type slowPeer struct {
	entered, release chan struct{}
	mu               sync.Mutex
	plans            []string
}

func (s *slowPeer) Addr() string { return "slow:1" }

func (s *slowPeer) Deliver(_ *simnet.Network, msg *simnet.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plans = append(s.plans, msg.Kind+" "+msg.Body.AttrDefault("id", ""))
	return nil
}

func (s *slowPeer) Serve(_ *simnet.Network, _ *simnet.Message) (*xmltree.Node, error) {
	close(s.entered)
	<-s.release
	return xmltree.MustParse(`<data staleness="0"><sale><cd>Blue Train</cd><price>8</price></sale></data>`), nil
}

// TestCloseFinishesInFlightStep closes a worker-pool server while its step
// waits on a remote fetch: Close waits for the step, and the step, once the
// fetch returns, forwards the plan as it would have without the Close. The
// client hears nothing from this server.
func TestCloseFinishesInFlightStep(t *testing.T) {
	client, srv := runtimeWorld(t, Config{Workers: 1, Policy: mqp.DefaultPolicy{}})
	slow := &slowPeer{entered: make(chan struct{}), release: make(chan struct{})}
	srv.cfg.Net.(*simnet.Network).Add(slow)
	srv.Catalog().AddAlias("urn:RT:Slow", "http://slow:1/data")

	rest := algebra.URN(namespace.EncodeURN(srv.ns.MustParseArea("[USA/WA/Seattle, Music/CDs]")))
	rest.Annotate(catalog.AnnotRoute, "slow:1")
	plan := algebra.NewPlan("inflight", "client:9020",
		algebra.Display(algebra.Union(algebra.URN("urn:RT:Slow"), rest)))
	if err := client.Submit("srv:9020", plan); err != nil {
		t.Fatal(err)
	}
	<-slow.entered

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	<-srv.rt.ctx.Done()
	close(slow.release)
	<-closed

	slow.mu.Lock()
	defer slow.mu.Unlock()
	if len(slow.plans) != 1 || slow.plans[0] != KindMQP+" inflight" {
		t.Fatalf("slow:1 received %q, want the plan forwarded", slow.plans)
	}
	if rs := client.Results(); len(rs) != 0 {
		t.Fatalf("client got %d results (first partial=%v reason %q), want none",
			len(rs), rs[0].Partial, rs[0].Plan.PartialReason())
	}
	if errs := srv.StuckErrors(); len(errs) != 0 {
		t.Fatalf("stuck errors: %v", errs)
	}
}

// TestResultSnapshotsAreDefensive checks the satellite contract: Results
// returns the caller's own slice, and TakeResult re-allocates the backing
// array, so a held snapshot never observes later pops or appends.
func TestResultSnapshotsAreDefensive(t *testing.T) {
	client, srv := runtimeWorld(t, Config{})
	defer srv.Close()

	for i := 0; i < 3; i++ {
		if err := client.Submit("srv:9020", rtPlan(fmt.Sprintf("snap%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := client.Results()
	if len(snap) != 3 {
		t.Fatalf("results = %d, want 3", len(snap))
	}

	taken, ok := client.TakeResult()
	if !ok || taken.Plan.ID != "snap0" {
		t.Fatalf("take = %+v, %v", taken, ok)
	}
	if len(snap) != 3 || snap[0].Plan.ID != "snap0" {
		t.Fatalf("snapshot mutated by TakeResult: %+v", snap)
	}
	if got := client.Results(); len(got) != 2 || got[0].Plan.ID != "snap1" {
		t.Fatalf("after take: %d results, first %s", len(got), got[0].Plan.ID)
	}

	// A new result appended after the pop must not leak into the snapshot's
	// backing array.
	if err := client.Submit("srv:9020", rtPlan("snap3")); err != nil {
		t.Fatal(err)
	}
	if snap[1].Plan.ID != "snap1" || snap[2].Plan.ID != "snap2" {
		t.Fatalf("snapshot aliased later append: %+v", snap)
	}
}

// TestShedResultKeepsFetchDelay: a result routed as an MQP is accepted even
// by a peer that is shedding, and the fetch-on-miss round trip its payload
// cost is on the result's clock the same as on every other arrival path.
func TestShedResultKeepsFetchDelay(t *testing.T) {
	net, ns := simnet.New(), testNS()
	sender := mustPeer(t, Config{Addr: "s:1", Net: net, NS: ns, Blobs: blobstore.New()})
	owner := mustPeer(t, Config{Addr: "o:1", Net: net, NS: ns, Blobs: blobstore.New(), Workers: 1})
	owner.Close() // from here on every delivered plan is shed

	// The sender believes the owner holds the payload; the owner never saw it.
	payload := xmltree.MustParse(bigSale("Giant Steps", 9))
	fp, _ := blobstore.Fingerprint(payload)
	sender.blobs.teach("o:1", fp, payload)

	const at = 100 * time.Millisecond
	res := algebra.NewPlan("shed-q", "o:1", algebra.Display(algebra.Data(payload)))
	enc := xmltree.GetFrameEncoder()
	sender.frame(res, "o:1")(enc)
	body, err := xmltree.DecodeString(enc.String())
	enc.Release()
	if err != nil || !algebra.Marked(body) || !strings.Contains(body.String(), "<blob ") {
		t.Fatalf("sender staged %v (%v), want a marked frame carrying the payload by reference", body, err)
	}
	if err := owner.Deliver(net, &simnet.Message{From: "s:1", To: "o:1", Kind: KindMQP, Body: body, At: at}); err != nil {
		t.Fatal(err)
	}
	got, ok := owner.TakeResult()
	if !ok || owner.BlobNetStats().Fetches != 1 {
		t.Fatalf("result %v, fetches %d; want the result after one fetch-on-miss", ok, owner.BlobNetStats().Fetches)
	}
	if got.At <= at {
		t.Fatalf("result stamped %v, want later than its arrival at %v by the fetch round trip", got.At, at)
	}
}
