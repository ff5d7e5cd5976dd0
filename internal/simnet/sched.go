// Scheduled-delivery mode: a seeded, deterministic event-queue pump with
// fault injection.
//
// UseScheduler switches a Network from inline delivery to queued delivery:
// Send enqueues an event and Run pops events in (virtual time, sequence)
// order, invoking Deliver for each. Because ties break on the enqueue
// sequence number and all randomness comes from one seeded generator
// consumed in pump order, a run is a pure function of the seed and the
// submitted workload — any failing scenario replays exactly from its seed.
//
// Fault model, layered on the pump:
//
//   - Drop/Duplicate/Reorder: per-link probabilities (Faults). A dropped
//     message vanishes in transit (the sender saw a successful Send); a
//     duplicated one is delivered twice; a reordered one suffers extra
//     random latency so later messages can overtake it.
//   - Crash/restart: ScheduleCrash marks a peer down for a virtual-time
//     window via control events in the same queue. Messages arriving during
//     the window are lost (recorded in the trace); sends initiated while
//     the peer is down fail with ErrUnreachable, the refused-connection
//     analog the fallback routing in peers reacts to.
//   - Partitions: Network.Partition (simnet.go) cuts link groups for a
//     window; in scheduled mode in-flight messages crossing a cut that
//     formed after they were sent are lost at delivery time.
//
// Every message leaves one TraceRec — envelope, virtual time and a
// caller-chosen key, never the body: the Trace separates messages delivered,
// dropped in transit, and lost to a crash or partition at delivery time, so
// harnesses can prove no message disappeared silently.
package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/xmltree"
)

// Faults are per-link, per-message fault-injection probabilities (each in
// [0,1]), applied by the scheduler when a message is sent.
type Faults struct {
	// Drop loses the message in transit. The sender is not told.
	Drop float64
	// Duplicate delivers the message a second time, ReorderWindow-jittered.
	Duplicate float64
	// Reorder adds up to ReorderWindow of extra latency to the message, so
	// messages sent later can overtake it.
	Reorder float64
	// ReorderWindow bounds the extra latency of reordered and duplicated
	// messages. Zero defaults to 75ms.
	ReorderWindow time.Duration
}

// event is one scheduled occurrence: a message delivery or a control action
// (crash, restart, or a driver callback).
type event struct {
	at  time.Duration
	seq uint64
	msg *Message         // delivery event when non-nil
	ctl func(n *Network) // control event; runs with n.mu held
	fn  func()           // driver callback; runs WITHOUT n.mu (may Send)
}

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// scheduler holds the queued-mode state. All fields are guarded by the
// owning Network's mu.
type scheduler struct {
	rng      *rand.Rand
	queue    eventQueue
	seq      uint64
	defaults Faults
	links    map[string]Faults // per-link overrides, keyed by unordered pair
	running  bool
	// crashed counts overlapping crash windows per address, so one window's
	// restart cannot revive a peer still inside another window (or one that
	// crashed with no restart).
	crashed map[string]int
	// droppedMark/lostMark are the trace lengths when the previous Run
	// finished, so RunStats can report per-round counts (drops happen at
	// send time, which may precede the Run call) while the trace stays
	// cumulative.
	droppedMark, lostMark int

	// trace holds one record per message; no body outlives its delivery.
	// traceKey, when set, names each record (see SetTraceKey).
	trace    Trace
	traceKey func(*Message) string
}

// UseScheduler switches the network to scheduled delivery, seeding the fault
// generator. Call it once, before any Send; the experiments keep the inline
// default, which this mode leaves byte-identical.
func (n *Network) UseScheduler(seed int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sched = &scheduler{
		rng:     rand.New(rand.NewSource(seed)),
		links:   map[string]Faults{},
		crashed: map[string]int{},
	}
}

// SetFaults sets the default fault probabilities for every link.
func (n *Network) SetFaults(f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mustSchedLocked("SetFaults").defaults = f
}

// SetLinkFaults overrides the fault probabilities for the unordered link
// (a, b).
func (n *Network) SetLinkFaults(a, b string, f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mustSchedLocked("SetLinkFaults").links[linkKey(a, b)] = f
}

// ScheduleCrash makes the peer at addr crash (become unreachable) at virtual
// time from and restart at until. Pass until <= from for a crash with no
// restart. The transitions are control events in the delivery queue, so they
// interleave deterministically with message traffic; overlapping windows for
// the same address are counted, and the peer restarts only when every window
// that took it down has ended.
func (n *Network) ScheduleCrash(addr string, from, until time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.mustSchedLocked("ScheduleCrash")
	s.pushLocked(&event{at: from, ctl: func(n *Network) {
		s.crashed[addr]++
		n.down[addr] = true
		// The crash severs every connection the peer held: link pricing
		// restarts from setup for traffic after the restart.
		n.severLinks(addr)
	}})
	if until > from {
		s.pushLocked(&event{at: until, ctl: func(n *Network) {
			s.crashed[addr]--
			if s.crashed[addr] <= 0 {
				n.down[addr] = false
			}
		}})
	}
}

// ScheduleFunc runs fn at virtual time at, interleaved deterministically
// with message traffic like any other control event. Unlike crash/restart
// transitions, fn runs WITHOUT the network lock held, so it may create
// peers, send messages, or push registrations — this is the hook mid-run
// churn (peer joins, replica promotion) drives through. fn runs on the Run
// goroutine; the single-pumped determinism contract is unchanged.
func (n *Network) ScheduleFunc(at time.Duration, fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mustSchedLocked("ScheduleFunc").pushLocked(&event{at: at, fn: fn})
}

// SetTraceKey names trace records: each delivered, dropped or lost message's
// TraceRec carries key(msg) (a chaos harness keys by plan id). key sees the
// message as the scheduler holds it, whose Body is the document the receiver
// gets (a sent frame decoded); a dropped request's placeholder has a nil
// Body. Set it right after UseScheduler, before any traffic.
func (n *Network) SetTraceKey(key func(*Message) string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mustSchedLocked("SetTraceKey").traceKey = key
}

// recordLocked appends msg's record to one of the trace's lists.
func (s *scheduler) recordLocked(list *[]TraceRec, msg *Message) {
	r := TraceRec{From: msg.From, To: msg.To, Kind: msg.Kind, At: msg.At}
	if s.traceKey != nil {
		r.Key = s.traceKey(msg)
	}
	*list = append(*list, r)
}

func (n *Network) mustSchedLocked(op string) *scheduler {
	if n.sched == nil {
		panic("simnet: " + op + " requires UseScheduler")
	}
	return n.sched
}

func linkKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "|" + b
}

func (s *scheduler) faultsLocked(a, b string) Faults {
	if f, ok := s.links[linkKey(a, b)]; ok {
		return f
	}
	return s.defaults
}

func (s *scheduler) pushLocked(ev *event) {
	ev.seq = s.seq
	s.seq++
	heap.Push(&s.queue, ev)
}

// jitterLocked draws extra latency in [0, window), quantized to whole
// microseconds: provenance marshals virtual time at microsecond granularity,
// so sub-microsecond delivery times would not survive a serialization round
// trip (and would break signature verification over re-parsed trails).
// Windows under 1µs draw from a single-microsecond range rather than
// panicking in Int63n.
func (s *scheduler) jitterLocked(window time.Duration) time.Duration {
	us := int64(window / time.Microsecond)
	if us < 1 {
		us = 1
	}
	return time.Duration(s.rng.Int63n(us)) * time.Microsecond
}

// enqueueSendLocked applies send-side faults and enqueues the delivery.
// Reachability (down peers, partitions) was already checked by send, and
// wireBody is the document the destination (and a duplicated delivery) will
// see: the decoded frame, or a frozen body's alias. A drop is recorded here,
// at send time, keyed from the envelope as sent with wireBody as its body.
func (s *scheduler) enqueueSendLocked(n *Network, msg *Message, wireBody *xmltree.Node, transit time.Duration, size int) error {
	f := s.faultsLocked(msg.From, msg.To)
	window := f.ReorderWindow
	if window <= 0 {
		window = 75 * time.Millisecond
	}
	n.account([2]string{msg.From, msg.To}, msg.Kind, size, false)
	if f.Drop > 0 && s.rng.Float64() < f.Drop {
		s.recordLocked(&s.trace.Dropped, &Message{
			From: msg.From, To: msg.To, Kind: msg.Kind, Body: wireBody, At: msg.At,
		})
		return nil
	}
	at := msg.At + transit
	if f.Reorder > 0 && s.rng.Float64() < f.Reorder {
		at += s.jitterLocked(window)
	}
	deliver := func(at time.Duration) *Message {
		return &Message{
			From: msg.From, To: msg.To, Kind: msg.Kind, Body: wireBody,
			At: at, Hops: msg.Hops + 1,
		}
	}
	s.pushLocked(&event{at: at, msg: deliver(at)})
	if f.Duplicate > 0 && s.rng.Float64() < f.Duplicate {
		// The duplicate rides the already-open link: frame cost, no setup.
		n.account([2]string{msg.From, msg.To}, msg.Kind, size, false)
		dupAt := msg.At + transit + s.jitterLocked(window)
		s.pushLocked(&event{at: dupAt, msg: deliver(dupAt)})
	}
	return nil
}

// dropRequestLocked decides whether a synchronous request is lost in
// transit; the dropped request is traced with a body-less placeholder.
func (s *scheduler) dropRequestLocked(from, to, kind string, at time.Duration) bool {
	f := s.faultsLocked(from, to)
	if f.Drop > 0 && s.rng.Float64() < f.Drop {
		s.recordLocked(&s.trace.Dropped, &Message{From: from, To: to, Kind: kind, At: at})
		return true
	}
	return false
}

// RunStats summarizes one scheduling round: deliveries made during the Run
// call, messages removed by faults since the previous Run finished (a drop
// is recorded at send time, which may precede the call; SchedTrace, by
// contrast, is cumulative), and the errors Deliver handlers returned (in
// delivery order).
type RunStats struct {
	Delivered int
	Dropped   int
	Lost      int
	// Events counts every event the pump popped, deliveries and control
	// events alike — the raw event volume of the round.
	Events int
	// ByKind batches the round's deliveries per message kind, so a harness
	// can report e.g. plan traffic vs registration churn without retaining
	// per-message traces.
	ByKind map[string]int
	Errors []error
}

// maxRunEvents bounds one Run; exceeding it means a runaway loop the
// depth guard did not catch (e.g. a handler that re-submits forever).
const maxRunEvents = 1 << 20

// Run pumps the event queue to exhaustion: events pop in (virtual time,
// sequence) order and deliveries invoke the destination's Deliver inline,
// which may enqueue further sends. A destination that is down, partitioned
// away or unregistered at delivery time loses the message (recorded in the
// trace). Deliver errors are collected, not fatal — a stuck plan must not
// stop the rest of the network.
//
// Run returns when the queue is empty. It must not be called concurrently
// with itself; handlers run on the calling goroutine.
func (n *Network) Run() (RunStats, error) {
	n.mu.Lock()
	s := n.sched
	if s == nil {
		n.mu.Unlock()
		return RunStats{}, fmt.Errorf("simnet: Run requires UseScheduler")
	}
	if s.running {
		n.mu.Unlock()
		return RunStats{}, fmt.Errorf("simnet: concurrent Run")
	}
	s.running = true
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		s.running = false
		n.mu.Unlock()
	}()

	stats := RunStats{ByKind: map[string]int{}}
	for {
		n.mu.Lock()
		if len(s.queue) == 0 {
			dropped, lost := len(s.trace.Dropped), len(s.trace.Lost)
			stats.Dropped = dropped - s.droppedMark
			stats.Lost = lost - s.lostMark
			s.droppedMark = dropped
			s.lostMark = lost
			n.mu.Unlock()
			return stats, nil
		}
		ev := heap.Pop(&s.queue).(*event)
		stats.Events++
		if stats.Events > maxRunEvents {
			n.mu.Unlock()
			return stats, fmt.Errorf("simnet: scheduler exceeded %d events; runaway loop?", maxRunEvents)
		}
		if ev.ctl != nil {
			ev.ctl(n)
			n.mu.Unlock()
			continue
		}
		if ev.fn != nil {
			n.mu.Unlock()
			ev.fn()
			continue
		}
		msg := ev.msg
		p := n.peers[msg.To]
		if p == nil || n.down[msg.To] || n.blockedLocked(msg.From, msg.To, msg.At) {
			s.recordLocked(&s.trace.Lost, msg)
			n.mu.Unlock()
			continue
		}
		s.recordLocked(&s.trace.Delivered, msg)
		n.mu.Unlock()

		stats.Delivered++
		stats.ByKind[msg.Kind]++
		if err := p.Deliver(n, msg); err != nil {
			stats.Errors = append(stats.Errors, err)
		}
	}
}

// TraceRec is one trace record: the routing envelope, the virtual time
// (arrival for deliveries and losses, send time for drops), and the key
// SetTraceKey named the message by ("" without one). Every field is one a
// socket transport knows about a frame too.
type TraceRec struct {
	Key      string
	From, To string
	Kind     string
	At       time.Duration
}

// Trace is the scheduler's fault/delivery record: what arrived, what was
// dropped in transit, and what was lost at delivery time (destination
// crashed, partitioned away or unknown).
type Trace struct {
	Delivered, Dropped, Lost []TraceRec
}

// SchedTrace returns a copy of the scheduler's trace.
func (n *Network) SchedTrace() Trace {
	n.mu.Lock()
	defer n.mu.Unlock()
	t := n.mustSchedLocked("SchedTrace").trace
	return Trace{
		Delivered: append([]TraceRec(nil), t.Delivered...),
		Dropped:   append([]TraceRec(nil), t.Dropped...),
		Lost:      append([]TraceRec(nil), t.Lost...),
	}
}
