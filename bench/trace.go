package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"repro/internal/simnet"
	"repro/internal/xmltree"
)

// span is one traced interval. Spans are recorded from the benchmark's own
// files around calls into the program; the program itself is not
// instrumented. All spans of one client operation share Query.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Query  int64  `json:"query"`
	Name   string `json:"name"` // query, write, deliver, serve, or stage:<layer.stage>
	Addr   string `json:"addr"`
	Role   string `json:"role"`
	Kind   string `json:"kind"` // message kind, or what a root span did
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the duration minus the part covered by child spans.
	Self int64 `json:"self_ns"`

	child int64
}

// maxSpans bounds the trace kept in memory; later spans are still timed and
// counted toward the layer metrics, they are just not written out.
const maxSpans = 100_000

// maxCaptures bounds the hops whose bodies are kept for the stage replay:
// the first ones the traced phase sees.
const maxCaptures = 2000

// capture is one input kept for the stage replay: a plan or result as a
// simnet peer received it, or a plan frame as the tcp_chain client sent it.
type capture struct {
	span  *span
	addr  string
	kind  string
	at    time.Duration // virtual time of delivery
	body  *xmltree.Node
	frame []byte
}

// tracer records spans. The traced worlds run every hop inline on the
// client goroutine, so the open spans form a stack and need no lock.
type tracer struct {
	t0    time.Time
	spans []*span
	stack []*span
	ids   int64
	query int64

	captures []capture
	// self collects deliver-span self times in microseconds by role.
	self map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), self: map[string][]float64{}}
}

func (t *tracer) begin(name, addr, role, kind string) *span {
	t.ids++
	s := &span{ID: t.ids, Name: name, Addr: addr, Role: role, Kind: kind}
	if n := len(t.stack); n > 0 {
		s.Parent, s.Query = t.stack[n-1].ID, t.stack[n-1].Query
	} else {
		t.query++
		s.Query = t.query
	}
	t.stack = append(t.stack, s)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
	s.Start = int64(time.Since(t.t0))
	return s
}

func (t *tracer) end(s *span) {
	s.End = int64(time.Since(t.t0))
	s.Self = s.End - s.Start - s.child
	t.stack = t.stack[:len(t.stack)-1]
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += s.End - s.Start
	}
	if s.Name == "deliver" {
		t.self[s.Role] = append(t.self[s.Role], float64(s.Self)/1e3)
	}
}

// stage records an already timed stage of the replay as a child of parent.
func (t *tracer) stage(parent *span, name string, start time.Time, d time.Duration) {
	if len(t.spans) >= maxSpans {
		return
	}
	t.ids++
	s := &span{ID: t.ids, Name: "stage:" + name, Start: int64(start.Sub(t.t0)), Self: int64(d)}
	s.End = s.Start + int64(d)
	if parent != nil {
		s.Parent, s.Query, s.Addr, s.Role = parent.ID, parent.Query, parent.Addr, parent.Role
	}
	t.spans = append(t.spans, s)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// proxyPeer stands in for a peer on the network (Network.Add replaces) and
// opens a span around every Deliver and Serve of the peer behind it.
type proxyPeer struct {
	inner simnet.Peer
	role  string
	tr    *tracer
}

func (p *proxyPeer) Addr() string { return p.inner.Addr() }

func (p *proxyPeer) Deliver(net *simnet.Network, msg *simnet.Message) error {
	s := p.tr.begin("deliver", msg.To, p.role, msg.Kind)
	if len(p.tr.captures) < maxCaptures {
		p.tr.captures = append(p.tr.captures, capture{span: s, addr: msg.To, kind: msg.Kind, at: msg.At, body: msg.Body})
	}
	err := p.inner.Deliver(net, msg)
	p.tr.end(s)
	return err
}

func (p *proxyPeer) Serve(net *simnet.Network, req *simnet.Message) (*xmltree.Node, error) {
	s := p.tr.begin("serve", req.To, p.role, req.Kind)
	reply, err := p.inner.Serve(net, req)
	p.tr.end(s)
	return reply, err
}

// trace puts a proxy in front of every peer of the world, or with nil takes
// the proxies away again.
func (w *simWorld) trace(tr *tracer) {
	w.tr = tr
	for _, p := range w.peers {
		if tr == nil {
			w.net.Add(p)
		} else {
			w.net.Add(&proxyPeer{inner: p, role: w.roles[p.Addr()], tr: tr})
		}
	}
}
