package simnet

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/xmltree"
)

// chainPeer forwards deliveries onward until the chain reaches length hops,
// then (optionally) starts a brand-new activity with fresh Hops. A send of its
// own that fails is its record (err): no sender upstream learns of it.
type chainPeer struct {
	addr    string
	hops    int                      // forward to self until the delivered Hops reaches this
	then    func(net *Network) error // run when the chain completes
	reached int
	err     error
}

func (p *chainPeer) Addr() string { return p.addr }

func (p *chainPeer) Deliver(net *Network, msg *Message) error {
	p.reached = msg.Hops
	var err error
	if msg.Hops < p.hops {
		err = net.Send(&Message{From: p.addr, To: p.addr, Kind: msg.Kind, Body: msg.Body, At: msg.At, Hops: msg.Hops})
	} else if p.then != nil {
		err = p.then(net)
	}
	if err != nil {
		p.err = err
	}
	return err
}

func (p *chainPeer) Serve(net *Network, req *Message) (*xmltree.Node, error) {
	return req.Body, nil
}

// TestDepthIsPerDeliveryChain: a deep chain that spawns a fresh activity
// mid-flight must not bleed its depth into the new chain. With the old
// shared Network.depth counter, 200 ambient frames plus a 200-hop nested
// activity summed past the 256 limit and tripped the loop guard spuriously.
func TestDepthIsPerDeliveryChain(t *testing.T) {
	n := New()
	inner := &chainPeer{addr: "inner:1", hops: 200}
	outer := &chainPeer{addr: "outer:1", hops: 200, then: func(net *Network) error {
		// A fresh activity: Hops starts at zero again.
		return net.Send(&Message{From: "outer:1", To: "inner:1", Kind: "fresh"})
	}}
	n.Add(inner)
	n.Add(outer)
	if err := n.Send(&Message{From: "x", To: "outer:1", Kind: "deep"}); err != nil {
		t.Fatal(err)
	}
	if outer.err != nil || inner.err != nil {
		t.Fatalf("nested activities must not share depth: %v, %v", outer.err, inner.err)
	}
	if inner.reached != 200 {
		t.Fatalf("inner chain reached %d hops, want 200", inner.reached)
	}
}

// TestDepthConcurrentSubmissions: two deep chains in flight at once must not
// add up toward the loop limit (the old shared counter made this flaky).
func TestDepthConcurrentSubmissions(t *testing.T) {
	n := New()
	a := &chainPeer{addr: "a:1", hops: 200}
	b := &chainPeer{addr: "b:1", hops: 200}
	n.Add(a)
	n.Add(b)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := make(chan struct{})
	for i, to := range []string{"a:1", "b:1"} {
		wg.Add(1)
		go func(i int, to string) {
			defer wg.Done()
			<-start
			errs[i] = n.Send(&Message{From: "x", To: to, Kind: "deep"})
		}(i, to)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	for _, p := range []*chainPeer{a, b} {
		if p.err != nil || p.reached != 200 {
			t.Fatalf("%s reached %d hops, error %v: interleaved chains tripped the loop guard", p.addr, p.reached, p.err)
		}
	}
}

// TestDepthLimitStillTrips: an actual forwarding loop must still be caught,
// and the error must carry the sentinel. It reaches the hop whose send hit the
// limit, not the submitter.
func TestDepthLimitStillTrips(t *testing.T) {
	n := New()
	p := &chainPeer{addr: "loop:1", hops: 1 << 30}
	n.Add(p)
	if err := n.Send(&Message{From: "x", To: "loop:1", Kind: "loop"}); err != nil {
		t.Fatalf("the submitter saw %v, want nil", err)
	}
	if !errors.Is(p.err, ErrDepthExceeded) || p.reached != 256 {
		t.Fatalf("the looping hop recorded %v at %d hops, want ErrDepthExceeded at 256", p.err, p.reached)
	}
}

// runScenario drives a fixed workload through a scheduled network and
// returns a reproducible digest of what happened.
func runScenario(t *testing.T, seed int64, f Faults) (string, Trace) {
	t.Helper()
	n := New()
	n.UseScheduler(seed)
	n.SetTraceKey(func(m *Message) string { return m.Body.InnerText() })
	n.SetFaults(f)
	sink := &chainPeer{addr: "sink:1"}
	hop := &chainPeer{addr: "hop:1", hops: 0, then: nil}
	n.Add(sink)
	n.Add(hop)
	for i := 0; i < 40; i++ {
		to := "sink:1"
		if i%2 == 0 {
			to = "hop:1"
		}
		body := xmltree.ElemText("m", fmt.Sprintf("%d", i))
		if err := n.Send(&Message{From: "src", To: to, Kind: "k", Body: body, At: time.Duration(i) * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	tr := n.SchedTrace()
	digest := ""
	for _, r := range tr.Delivered {
		digest += fmt.Sprintf("%s@%v;", r.Key, r.At)
	}
	return digest, tr
}

func TestSchedulerDeterministicPerSeed(t *testing.T) {
	f := Faults{Drop: 0.2, Duplicate: 0.15, Reorder: 0.5}
	d1, s1 := runScenario(t, 7, f)
	d2, s2 := runScenario(t, 7, f)
	if d1 != d2 || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", d1, d2)
	}
	d3, _ := runScenario(t, 8, f)
	if d1 == d3 {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestSchedulerFaultFreeMatchesInlineTiming(t *testing.T) {
	// The same two-hop chain, inline vs scheduled with no faults, must agree
	// on delivery times, hops, and metrics.
	build := func(sched bool) (*Network, *chainPeer) {
		n := New()
		n.SetLatency(func(a, b string) time.Duration { return 10 * time.Millisecond })
		n.SetProcDelay(time.Millisecond)
		if sched {
			n.UseScheduler(1)
		}
		c := &chainPeer{addr: "c:1"}
		b := &chainPeer{addr: "b:1", then: func(net *Network) error {
			return net.Send(&Message{From: "b:1", To: "c:1", Kind: "k", At: 11 * time.Millisecond, Hops: 1})
		}}
		n.Add(b)
		n.Add(c)
		return n, c
	}
	inline, cInline := build(false)
	if err := inline.Send(&Message{From: "x", To: "b:1", Kind: "k"}); err != nil {
		t.Fatal(err)
	}
	queued, cQueued := build(true)
	if err := queued.Send(&Message{From: "x", To: "b:1", Kind: "k"}); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Run(); err != nil {
		t.Fatal(err)
	}
	if tr := queued.SchedTrace(); len(tr.Delivered) != 2 || len(tr.Dropped) != 0 || len(tr.Lost) != 0 {
		t.Fatalf("trace = %+v", tr)
	}
	if cInline.reached != cQueued.reached {
		t.Fatalf("hops differ: inline %d, queued %d", cInline.reached, cQueued.reached)
	}
	mi, mq := inline.Metrics(), queued.Metrics()
	if !reflect.DeepEqual(mi, mq) {
		t.Fatalf("metrics differ: inline %+v, queued %+v", mi, mq)
	}
}

func TestSchedulerDropAndDuplicate(t *testing.T) {
	n := New()
	n.UseScheduler(3)
	n.SetFaults(Faults{Drop: 1})
	sink := &chainPeer{addr: "sink:1"}
	n.Add(sink)
	if err := n.Send(&Message{From: "x", To: "sink:1", Kind: "k", Body: xmltree.Elem("b")}); err != nil {
		t.Fatalf("a dropped message must look sent: %v", err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if tr := n.SchedTrace(); len(tr.Delivered) != 0 || len(tr.Dropped) != 1 {
		t.Fatalf("trace = %+v", tr)
	}
	// Bytes were still spent on the wire.
	if n.Metrics().Messages != 1 {
		t.Fatalf("metrics = %+v", n.Metrics())
	}

	n2 := New()
	n2.UseScheduler(3)
	n2.SetFaults(Faults{Duplicate: 1})
	sink2 := &chainPeer{addr: "sink:1"}
	n2.Add(sink2)
	if err := n2.Send(&Message{From: "x", To: "sink:1", Kind: "k"}); err != nil {
		t.Fatal(err)
	}
	if _, err := n2.Run(); err != nil {
		t.Fatal(err)
	}
	if tr := n2.SchedTrace(); len(tr.Delivered) != 2 {
		t.Fatalf("duplicate not delivered twice: %+v", tr)
	}
	if n2.Metrics().Messages != 2 {
		t.Fatalf("duplicate must be accounted: %+v", n2.Metrics())
	}
}

func TestSchedulerCrashWindow(t *testing.T) {
	n := New()
	n.UseScheduler(5)
	sink := &chainPeer{addr: "sink:1"}
	n.Add(sink)
	n.SetLatency(func(a, b string) time.Duration { return 10 * time.Millisecond })
	n.SetProcDelay(0)
	n.ScheduleCrash("sink:1", 15*time.Millisecond, 40*time.Millisecond)

	// Arrives at 10ms: before the crash, delivered.
	// Sent at 10ms, arrives 20ms: in the window, lost.
	// Sent at 35ms, arrives 45ms: after restart, delivered.
	for _, at := range []time.Duration{0, 10 * time.Millisecond, 35 * time.Millisecond} {
		if err := n.Send(&Message{From: "x", To: "sink:1", Kind: "k", At: at}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if tr := n.SchedTrace(); len(tr.Delivered) != 2 || len(tr.Lost) != 1 {
		t.Fatalf("trace = %+v", tr)
	}
	want := TraceRec{From: "x", To: "sink:1", Kind: "k", At: 20 * time.Millisecond}
	if tr := n.SchedTrace(); len(tr.Lost) != 1 || tr.Lost[0] != want {
		t.Fatalf("lost = %+v, want [%+v]", tr.Lost, want)
	}
	// While down, sends fail fast (the fallback-visible path): crash again,
	// with no restart, and observe the send-time error.
	n.ScheduleCrash("sink:1", 50*time.Millisecond, 0)
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	err := n.Send(&Message{From: "x", To: "sink:1", Kind: "k", At: 60 * time.Millisecond})
	var ue ErrUnreachable
	if !errors.As(err, &ue) {
		t.Fatalf("send to crashed peer = %v, want ErrUnreachable", err)
	}
}

func TestPartitionWindow(t *testing.T) {
	n := New()
	n.UseScheduler(9)
	n.SetLatency(func(a, b string) time.Duration { return 5 * time.Millisecond })
	n.SetProcDelay(0)
	a := &chainPeer{addr: "a:1"}
	b := &chainPeer{addr: "b:1"}
	n.Add(a)
	n.Add(b)
	n.Partition([]string{"a:1", "x"}, []string{"b:1"}, 10*time.Millisecond, 30*time.Millisecond)

	// Send-time check: inside the window the cut is sender-visible.
	err := n.Send(&Message{From: "x", To: "b:1", Kind: "k", At: 15 * time.Millisecond})
	var ue ErrUnreachable
	if !errors.As(err, &ue) {
		t.Fatalf("partitioned send = %v, want ErrUnreachable", err)
	}
	// In-flight loss: sent at 8ms (window not yet open), arrives at 13ms
	// inside the window — lost at delivery time.
	if err := n.Send(&Message{From: "x", To: "b:1", Kind: "k", At: 8 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// After healing, traffic flows again.
	if err := n.Send(&Message{From: "x", To: "b:1", Kind: "k", At: 31 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// The cut is directional-pair-scoped: unrelated links are unaffected.
	if err := n.Send(&Message{From: "x", To: "a:1", Kind: "k", At: 15 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if tr := n.SchedTrace(); len(tr.Delivered) != 2 || len(tr.Lost) != 1 {
		t.Fatalf("trace = %+v", tr)
	}
}

// TestOverlappingCrashWindows: one window's restart must not revive a peer
// still inside another window, and must never undo a crash-with-no-restart.
func TestOverlappingCrashWindows(t *testing.T) {
	n := New()
	n.UseScheduler(17)
	n.SetLatency(func(a, b string) time.Duration { return 0 })
	n.SetProcDelay(0)
	sink := &chainPeer{addr: "sink:1"}
	n.Add(sink)
	n.ScheduleCrash("sink:1", 10*time.Millisecond, 40*time.Millisecond)
	n.ScheduleCrash("sink:1", 15*time.Millisecond, 25*time.Millisecond)
	// Arrives at 30ms: after the inner window's restart but still inside the
	// outer one — must be lost, not delivered.
	for _, at := range []time.Duration{30 * time.Millisecond, 45 * time.Millisecond} {
		if err := n.Send(&Message{From: "x", To: "sink:1", Kind: "k", At: at}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if tr := n.SchedTrace(); len(tr.Delivered) != 1 || len(tr.Lost) != 1 {
		t.Fatalf("trace = %+v", tr)
	}

	// A crash with no restart stays down past any later window's restart.
	n2 := New()
	n2.UseScheduler(17)
	n2.SetLatency(func(a, b string) time.Duration { return 0 })
	n2.SetProcDelay(0)
	sink2 := &chainPeer{addr: "sink:1"}
	n2.Add(sink2)
	n2.ScheduleCrash("sink:1", 10*time.Millisecond, 0)
	n2.ScheduleCrash("sink:1", 15*time.Millisecond, 25*time.Millisecond)
	if err := n2.Send(&Message{From: "x", To: "sink:1", Kind: "k", At: 30 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := n2.Run(); err != nil {
		t.Fatal(err)
	}
	if tr := n2.SchedTrace(); len(tr.Delivered) != 0 || len(tr.Lost) != 1 {
		t.Fatalf("no-restart crash was undone: %+v", tr)
	}
}

// TestRunStatsPerRun: the event count Run returns covers only that call (a
// message dropped at send time never reaches the queue), while SchedTrace
// stays cumulative.
func TestRunStatsPerRun(t *testing.T) {
	n := New()
	n.UseScheduler(19)
	n.SetFaults(Faults{Drop: 1})
	sink := &chainPeer{addr: "sink:1"}
	n.Add(sink)
	for round := 1; round <= 2; round++ {
		if err := n.Send(&Message{From: "x", To: "sink:1", Kind: "k"}); err != nil {
			t.Fatal(err)
		}
		events, err := n.Run()
		if err != nil {
			t.Fatal(err)
		}
		if events != 0 {
			t.Fatalf("round %d: Run popped %d events, want 0", round, events)
		}
		dropped := n.SchedTrace().Dropped
		if len(dropped) != round {
			t.Fatalf("round %d: cumulative trace = %d", round, len(dropped))
		}
		if want := (TraceRec{From: "x", To: "sink:1", Kind: "k"}); dropped[round-1] != want {
			t.Fatalf("round %d: dropped record = %+v, want %+v", round, dropped[round-1], want)
		}
	}
}

// TestSubMicrosecondReorderWindow: a positive window under 1µs must not
// panic the jitter draw (rand.Int63n rejects 0).
func TestSubMicrosecondReorderWindow(t *testing.T) {
	n := New()
	n.UseScheduler(13)
	n.SetFaults(Faults{Reorder: 1, Duplicate: 1, ReorderWindow: 500 * time.Nanosecond})
	sink := &chainPeer{addr: "sink:1"}
	n.Add(sink)
	if err := n.Send(&Message{From: "x", To: "sink:1", Kind: "k"}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if tr := n.SchedTrace(); len(tr.Delivered) != 2 {
		t.Fatalf("trace = %+v", tr)
	}
}

func TestRequestDropUnderFaults(t *testing.T) {
	n := New()
	n.UseScheduler(11)
	n.SetFaults(Faults{Drop: 1})
	s := &chainPeer{addr: "s:1"}
	n.Add(s)
	_, _, err := n.Request(&Message{From: "c:1", To: "s:1", Kind: "fetch"}, xmltree.Elem("q").Stage)
	var ue ErrUnreachable
	if !errors.As(err, &ue) {
		t.Fatalf("dropped request = %v, want ErrUnreachable", err)
	}
}

func TestRunRequiresScheduler(t *testing.T) {
	n := New()
	if _, err := n.Run(); err == nil {
		t.Fatal("Run without UseScheduler must error")
	}
}

// TestScheduleFunc: driver callbacks fire at their virtual time, interleaved
// correctly with deliveries, and may send (they run without the network
// lock) — the hook large-world churn (joins, promotions) is built on.
func TestScheduleFunc(t *testing.T) {
	n := New()
	n.UseScheduler(5)
	sink := &chainPeer{addr: "sink:1"}
	n.Add(sink)

	var order []string
	n.ScheduleFunc(20*time.Millisecond, func() {
		order = append(order, "fn20")
		// Callbacks run without the scheduler lock: sending must work.
		if err := n.Send(&Message{From: "x", To: "sink:1", Kind: "from-fn"}); err != nil {
			t.Errorf("send from callback: %v", err)
		}
	})
	n.ScheduleFunc(5*time.Millisecond, func() { order = append(order, "fn5") })
	if err := n.Send(&Message{From: "x", To: "sink:1", Kind: "k", At: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	events, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fn5", "fn20"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("callback order = %v, want %v", order, want)
	}
	if events < 4 {
		t.Fatalf("Run popped %d events, want >= 4 (2 fns + 2 deliveries)", events)
	}
	var kinds []string
	for _, r := range n.SchedTrace().Delivered {
		kinds = append(kinds, r.Kind)
	}
	sort.Strings(kinds)
	if want := []string{"from-fn", "k"}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("delivered kinds = %v, want the scheduled send and the callback's %v", kinds, want)
	}
}

// TestTraceRecords pins the record each way a message can end — delivered,
// dropped at send, a dropped request (whose placeholder has no body), lost
// to a crash, lost to a partition, duplicated — with and without a key
// func: key, envelope and virtual time (arrival for deliveries and losses,
// send time for drops).
func TestTraceRecords(t *testing.T) {
	ms := time.Millisecond
	for _, keyed := range []bool{false, true} {
		n := New()
		n.UseScheduler(23)
		n.SetLatency(func(a, b string) time.Duration { return 10 * ms })
		n.SetProcDelay(0)
		key := func(string) string { return "" }
		if keyed {
			n.SetTraceKey(func(m *Message) string {
				if m.Body == nil {
					return "<nil>"
				}
				return m.Body.Name
			})
			key = func(k string) string { return k }
		}
		n.Add(&chainPeer{addr: "sink:1"})
		n.Add(&chainPeer{addr: "crashy:1"})
		n.SetLinkFaults("b", "sink:1", Faults{Drop: 1})
		n.SetLinkFaults("c", "sink:1", Faults{Drop: 1})
		n.SetLinkFaults("d", "sink:1", Faults{Duplicate: 1, ReorderWindow: time.Microsecond})
		n.ScheduleCrash("crashy:1", 15*ms, 0)
		n.Partition([]string{"p"}, []string{"sink:1"}, 25*ms, 40*ms)

		for _, m := range []*Message{
			{From: "a", To: "sink:1", Kind: "k", Body: xmltree.Elem("ok")},
			{From: "b", To: "sink:1", Kind: "k", Body: xmltree.Elem("drop"), At: 1 * ms},
			{From: "a", To: "crashy:1", Kind: "k", Body: xmltree.Elem("crash"), At: 10 * ms},
			{From: "p", To: "sink:1", Kind: "k", Body: xmltree.Elem("cut"), At: 20 * ms},
			{From: "d", To: "sink:1", Kind: "k", Body: xmltree.Elem("dup"), At: 40 * ms},
		} {
			if err := n.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := n.Request(&Message{From: "c", To: "sink:1", Kind: "fetch", At: 2 * ms}, xmltree.Elem("q").Stage); err == nil {
			t.Fatal("request on a Drop: 1 link succeeded")
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}

		want := Trace{
			Delivered: []TraceRec{
				{Key: key("ok"), From: "a", To: "sink:1", Kind: "k", At: 10 * ms},
				{Key: key("dup"), From: "d", To: "sink:1", Kind: "k", At: 50 * ms},
				{Key: key("dup"), From: "d", To: "sink:1", Kind: "k", At: 50 * ms},
			},
			Dropped: []TraceRec{
				{Key: key("drop"), From: "b", To: "sink:1", Kind: "k", At: 1 * ms},
				{Key: key("<nil>"), From: "c", To: "sink:1", Kind: "fetch", At: 2 * ms},
			},
			Lost: []TraceRec{
				{Key: key("crash"), From: "a", To: "crashy:1", Kind: "k", At: 20 * ms},
				{Key: key("cut"), From: "p", To: "sink:1", Kind: "k", At: 30 * ms},
			},
		}
		if got := n.SchedTrace(); !reflect.DeepEqual(got, want) {
			t.Fatalf("keyed=%v trace:\n got %+v\nwant %+v", keyed, got, want)
		}
	}
}
