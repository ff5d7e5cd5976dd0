package simnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xmltree"
)

// echoPeer records deliveries and serves requests by echoing the body. A
// forward that fails is its own record (err), as no sender upstream learns of
// it.
type echoPeer struct {
	addr      string
	delivered []*Message
	forwardTo string // when set, Deliver forwards the message onward
	err       error
}

func (p *echoPeer) Addr() string { return p.addr }

func (p *echoPeer) Deliver(net *Network, msg *Message) error {
	p.delivered = append(p.delivered, msg)
	if p.forwardTo == "" {
		return nil
	}
	err := net.Send(&Message{From: p.addr, To: p.forwardTo, Kind: msg.Kind, Body: msg.Body, At: msg.At, Hops: msg.Hops})
	if err != nil {
		p.err = err
	}
	return err
}

func (p *echoPeer) Serve(net *Network, req *Message) (*xmltree.Node, error) {
	return req.Body, nil
}

func TestSendAccountsAndDelivers(t *testing.T) {
	n := New()
	a := &echoPeer{addr: "a:1"}
	b := &echoPeer{addr: "b:1"}
	n.Add(a)
	n.Add(b)
	body := xmltree.MustParse(`<hello/>`)
	if err := n.Send(&Message{From: "a:1", To: "b:1", Kind: "mqp", Body: body}); err != nil {
		t.Fatal(err)
	}
	if len(b.delivered) != 1 {
		t.Fatalf("delivered = %d", len(b.delivered))
	}
	got := b.delivered[0]
	if got.Hops != 1 || got.At <= 0 {
		t.Fatalf("hops=%d at=%v", got.Hops, got.At)
	}
	m := n.Metrics()
	if m.Messages != 1 || m.Bytes <= int64(body.ByteSize()) {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestForwardChainAccumulatesTimeAndHops(t *testing.T) {
	n := New()
	n.SetLatency(func(a, b string) time.Duration { return 10 * time.Millisecond })
	n.SetProcDelay(time.Millisecond)
	c := &echoPeer{addr: "c:1"}
	b := &echoPeer{addr: "b:1", forwardTo: "c:1"}
	a := &echoPeer{addr: "a:1", forwardTo: "b:1"}
	n.Add(a)
	n.Add(b)
	n.Add(c)
	if err := n.Send(&Message{From: "x", To: "a:1", Kind: "mqp"}); err != nil {
		t.Fatal(err)
	}
	if len(c.delivered) != 1 {
		t.Fatalf("chain did not reach c")
	}
	final := c.delivered[0]
	if final.Hops != 3 {
		t.Fatalf("hops = %d, want 3", final.Hops)
	}
	if final.At != 33*time.Millisecond {
		t.Fatalf("virtual time = %v, want 33ms", final.At)
	}
}

func TestUnreachable(t *testing.T) {
	n := New()
	a := &echoPeer{addr: "a:1"}
	n.Add(a)
	err := n.Send(&Message{From: "a:1", To: "ghost:1", Kind: "x"})
	var ue ErrUnreachable
	if !errors.As(err, &ue) || ue.Addr != "ghost:1" {
		t.Fatalf("err = %v", err)
	}
	b := &echoPeer{addr: "b:1"}
	n.Add(b)
	n.SetDown("b:1", true)
	if err := n.Send(&Message{From: "a:1", To: "b:1", Kind: "x"}); err == nil {
		t.Fatal("down peer must be unreachable")
	}
	n.SetDown("b:1", false)
	if err := n.Send(&Message{From: "a:1", To: "b:1", Kind: "x"}); err != nil {
		t.Fatalf("recovered peer: %v", err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	n := New()
	n.SetLatency(func(a, b string) time.Duration { return 7 * time.Millisecond })
	n.SetProcDelay(0)
	s := &echoPeer{addr: "s:1"}
	n.Add(s)
	n.Add(&countPeer{addr: "e:1"})
	body := xmltree.MustParse(`<q>42</q>`)
	reply, at, err := n.Request(&Message{From: "c:1", To: "s:1", Kind: "lookup"}, body.Stage)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(reply, body) {
		t.Fatalf("reply = %s", reply)
	}
	if at != 14*time.Millisecond {
		t.Fatalf("rtt = %v", at)
	}
	m := n.Metrics()
	if m.Requests != 1 || m.Messages != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	// Error propagation from Serve.
	if _, _, err := n.Request(&Message{From: "c:1", To: "e:1", Kind: "lookup"}, body.Stage); err == nil {
		t.Fatal("serve error must propagate")
	}
}

// servePeer records what its Serve was handed and what it returned.
type servePeer struct {
	addr       string
	seen, sent *xmltree.Node
	seenAt     time.Duration
	nilReply   bool
}

func (p *servePeer) Addr() string                     { return p.addr }
func (p *servePeer) Deliver(*Network, *Message) error { return nil }

func (p *servePeer) Serve(_ *Network, req *Message) (*xmltree.Node, error) {
	p.seen, p.seenAt = req.Body, req.At
	if p.nilReply {
		return nil, nil
	}
	p.sent = xmltree.MustParse(`<data><item>1</item></data>`)
	return p.sent, nil
}

// TestRequestCarriesFrames: a request and its reply cross the link as frames.
// Serve is handed a decoded, frozen copy of the caller's document, the caller
// gets a decoded, frozen copy of Serve's reply, a nil reply is an error, and
// the virtual times are link latency plus processing out, latency back.
func TestRequestCarriesFrames(t *testing.T) {
	ms := time.Millisecond
	n := New()
	n.SetLatency(func(a, b string) time.Duration { return 7 * ms })
	n.SetProcDelay(ms)
	s := &servePeer{addr: "s:1"}
	n.Add(s)
	req := xmltree.MustParse(`<fetch path="/d"/>`)
	env := &Message{From: "c:1", To: "s:1", Kind: "fetch", At: 5 * ms}
	reply, at, err := n.Request(env, req.Stage)
	if err != nil {
		t.Fatal(err)
	}
	if s.seen == req || !s.seen.Frozen() || !xmltree.Equal(s.seen, req) {
		t.Fatalf("Serve was handed %s (frozen %v, the caller's tree %v), want a decoded copy",
			s.seen, s.seen.Frozen(), s.seen == req)
	}
	if reply == s.sent || !reply.Frozen() || !xmltree.Equal(reply, s.sent) {
		t.Fatalf("the caller got %s (frozen %v, Serve's node %v), want a decoded copy",
			reply, reply.Frozen(), reply == s.sent)
	}
	if s.seenAt != 13*ms || at != 20*ms {
		t.Fatalf("Serve ran at %v and the reply arrived at %v, want 13ms and 20ms", s.seenAt, at)
	}
	s.nilReply = true
	if _, _, err := n.Request(env, req.Stage); err == nil {
		t.Fatal("a nil reply must be an error")
	}
}

func TestDepthLimit(t *testing.T) {
	n := New()
	// a forwards to itself forever.
	a := &echoPeer{addr: "a:1", forwardTo: "a:1"}
	n.Add(a)
	if err := n.Send(&Message{From: "x", To: "a:1", Kind: "loop"}); err != nil {
		t.Fatalf("the submitter saw %v: a sender learns only transport failure", err)
	}
	if !errors.Is(a.err, ErrDepthExceeded) {
		t.Fatalf("routing loop must be detected at the looping hop, got %v", a.err)
	}
}

func TestDefaultLatencyDeterministicSymmetric(t *testing.T) {
	l1 := DefaultLatency("a:1", "b:2")
	l2 := DefaultLatency("b:2", "a:1")
	if l1 != l2 {
		t.Fatalf("latency not symmetric: %v vs %v", l1, l2)
	}
	if l1 < 5*time.Millisecond || l1 >= 55*time.Millisecond {
		t.Fatalf("latency out of range: %v", l1)
	}
	if DefaultLatency("a:1", "a:1") != 0 {
		t.Fatal("self latency must be zero")
	}
}

func TestResetMetricsAndAddrs(t *testing.T) {
	n := New()
	for i := 0; i < 3; i++ {
		n.Add(&echoPeer{addr: fmt.Sprintf("p%d:1", i)})
	}
	if len(n.Addrs()) != 3 {
		t.Fatalf("addrs = %v", n.Addrs())
	}
	_ = n.Send(&Message{From: "p0:1", To: "p1:1", Kind: "x"})
	n.ResetMetrics()
	m := n.Metrics()
	if m != (Metrics{}) {
		t.Fatalf("metrics after reset = %+v", m)
	}
	if n.Peer("p0:1") == nil || n.Peer("zz") != nil {
		t.Fatal("Peer lookup broken")
	}
}

// countPeer is a concurrency-safe sink: Deliver only bumps an atomic.
type countPeer struct {
	addr      string
	delivered atomic.Int64
}

func (p *countPeer) Addr() string { return p.addr }

func (p *countPeer) Deliver(_ *Network, _ *Message) error {
	p.delivered.Add(1)
	return nil
}

func (p *countPeer) Serve(_ *Network, _ *Message) (*xmltree.Node, error) {
	return nil, errors.New("countPeer serves nothing")
}

// TestConcurrentInlineSends hammers an inline network from many goroutines.
// Inline mode holds no lock across Deliver, so concurrent senders are the
// supported concurrency model (the worker-pool peer runtime depends on it);
// under -race this checks delivery and metrics accounting stay coherent.
func TestConcurrentInlineSends(t *testing.T) {
	n := New()
	sink := &countPeer{addr: "sink:1"}
	n.Add(sink)

	const senders, sendsEach = 8, 200
	body := xmltree.MustParse(`<probe/>`).Freeze()
	var wg sync.WaitGroup
	wg.Add(senders)
	for s := 0; s < senders; s++ {
		go func(s int) {
			defer wg.Done()
			from := fmt.Sprintf("src%d:1", s)
			for i := 0; i < sendsEach; i++ {
				if err := n.Send(&Message{From: from, To: "sink:1", Kind: "mqp", Body: body}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()

	if got := sink.delivered.Load(); got != senders*sendsEach {
		t.Fatalf("delivered = %d, want %d", got, senders*sendsEach)
	}
	m := n.Metrics()
	if m.Messages != senders*sendsEach || m.LinksOpened != senders {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestFrozenBodyDeliveredAsAlias pins the codec fast path: a frozen body is
// its own decoded form (immutable, decode∘serialize is the identity on it),
// so delivery aliases it instead of re-encoding — while a mutable body still
// round-trips through the codec and arrives as a distinct tree.
func TestFrozenBodyDeliveredAsAlias(t *testing.T) {
	n := New()
	sink := &echoPeer{addr: "sink:1"}
	n.Add(sink)

	frozen := xmltree.MustParse(`<sale><price>8</price></sale>`).Freeze()
	mutable := xmltree.MustParse(`<sale><price>9</price></sale>`)
	for _, body := range []*xmltree.Node{frozen, mutable} {
		if err := n.Send(&Message{From: "a:1", To: "sink:1", Kind: "mqp", Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.delivered) != 2 {
		t.Fatalf("delivered = %d", len(sink.delivered))
	}
	if sink.delivered[0].Body != frozen {
		t.Fatal("frozen body was re-encoded, want alias delivery")
	}
	if sink.delivered[1].Body == mutable {
		t.Fatal("mutable body delivered as alias, want codec round-trip")
	}
	if got := sink.delivered[1].Body.Value("price"); got != "9" {
		t.Fatalf("round-tripped body price = %q", got)
	}
}
