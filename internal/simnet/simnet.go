// Package simnet is the network substrate the experiments run on: an
// in-process message-passing network with deterministic per-link latency, a
// virtual clock carried on messages, and byte/message accounting.
//
// The paper's prototype ran over real sockets; the quantities its arguments
// turn on — messages sent, bytes shipped, hops taken, end-to-end latency —
// are exactly what simnet measures, deterministically and at laptop scale.
// Delivery has two modes:
//
//   - Inline (the default): a Send invokes the destination handler
//     synchronously. This is what the experiment tables run on; virtual time
//     advances by the link latency plus a configurable per-hop processing
//     delay, so "latency" in experiment output is simulated wall-clock, not
//     host time. Inline delivery is safe for concurrent senders (see
//     Network), which is what the peer worker-pool runtime exploits.
//
//   - Scheduled (UseScheduler): Send enqueues a delivery event and Run pumps
//     events in virtual-time order. This mode adds seeded fault injection —
//     per-link drop/duplicate/reorder probabilities, transient partitions,
//     and peer crash/restart windows at scheduled virtual times (sched.go) —
//     while staying fully deterministic for a given seed.
//
// A document crosses the way a socket carries it: staged into one frame at
// the sender, priced at the frame's length, and decoded on the receiver's
// side — a one-way frame (SendFrame), a request and its reply (Request) alike
// — so what a peer receives is a decoded, born-frozen tree. The one document
// still aliased is a frozen body handed to Send. In both modes a sender learns
// only what a socket tells it (unreachable, depth bound hit, frame refused):
// what a receiver makes of a message is the receiver's to record.
package simnet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/xmltree"
)

// Message is one unit of communication. Body is an XML document (plans,
// registrations, catalog queries). At is the virtual time of delivery.
type Message struct {
	From, To string
	Kind     string
	Body     *xmltree.Node
	At       time.Duration
	// Hops counts how many links the enclosing activity has traversed;
	// forwarding handlers propagate and increment it.
	Hops int
}

// Peer is a network participant. Deliver handles one-way messages (e.g. an
// MQP in flight, a registration); its error reaches no sender. Serve handles
// request/response calls (catalog lookups, data fetches) and returns the reply
// body.
//
// Ownership: every body a peer is handed is frozen — a decoded frame, or the
// sender's own frozen body on Send's alias path — so a receiver aliases what
// it keeps and never mutates it. A reply crosses back as a frame: Serve may
// return nodes it keeps, and the caller gets a decoded copy.
type Peer interface {
	// Addr returns the peer's stable network address.
	Addr() string
	// Deliver processes a one-way message; it may send further messages.
	Deliver(net *Network, msg *Message) error
	// Serve processes a request and returns the reply body.
	Serve(net *Network, req *Message) (*xmltree.Node, error)
}

// Metrics accumulates network-wide counters. All byte counts are canonical
// XML sizes (a staged frame's length, or a body's memoized ByteSize — no
// document is serialized just to price it) plus the per-frame mux header,
// plus a one-time setup charge per ordered link (see LinksOpened).
type Metrics struct {
	Messages int64
	Requests int64
	Bytes    int64
	// LinksOpened counts connection establishments: the first frame between
	// an ordered (from, to) pair opens a persistent link and pays
	// linkSetupOverhead; later frames reuse it for frameOverhead each. A
	// crash, SetDown or partition-blocked send severs the peer's links, so
	// traffic after recovery pays setup again — E4/E9-scale sweeps and chaos
	// runs price the reused-link path the real transport now takes.
	LinksOpened int64
}

// headerOverhead approximates connection-establishment cost in bytes (TCP
// handshake, mux magic); it is paid once per ordered link, not per message.
const headerOverhead = 64

// linkSetupOverhead is the one-time charge for opening a link.
const linkSetupOverhead = headerOverhead

// frameOverhead is the per-frame mux header: 4-byte length prefix plus
// 8-byte correlation id, matching the wire package's link framing.
const frameOverhead = 12

// Network is a simulated P2P network.
//
// Concurrency: inline mode is safe for concurrent Sends and Requests from
// any number of goroutines — mu guards topology and is never held across a
// Deliver or Serve call, and accounting has its own lock (metricsMu) so the
// per-message hot path never contends with topology changes. This is what
// the peer worker-pool runtime runs on. Scheduled mode stays single-pumped:
// Run delivers events one at a time in virtual-time order, which is what
// makes a seeded chaos scenario deterministic; its determinism contract
// would not survive concurrent handlers, so peers on a scheduled network
// must process inline (peer.Config.Workers == 0).
type Network struct {
	mu    sync.Mutex
	peers map[string]Peer
	down  map[string]bool
	// caps holds the capability byte each address declared when added (see
	// PeerCaps).
	caps map[string]byte

	// metricsMu guards metrics separately from mu: every delivery accounts
	// a message, and that must not serialize against topology reads. Lock
	// ordering: metricsMu may be taken while holding mu (the scheduler
	// accounts while enqueueing); never the reverse.
	metricsMu sync.Mutex
	metrics   Metrics
	// links tracks which ordered (from, to) pairs have an open persistent
	// link, for batched delivery pricing: the first frame on a pair pays
	// linkSetupOverhead, reuse pays frameOverhead only. Guarded by
	// metricsMu (it is accounting state, cleared on crash/down/partition).
	links map[[2]string]bool
	// latency returns the one-way link latency between two addresses.
	latency func(a, b string) time.Duration
	// procDelay is the per-hop processing time a peer spends on a message.
	procDelay time.Duration
	// maxDepth guards against forwarding loops. The guard is per delivery
	// chain (it checks the message's Hops count), so independent activities
	// in flight at the same time never add up toward the limit.
	maxDepth int
	// partitions are transient link cuts (see Partition); consulted on every
	// send and, in scheduled mode, again at delivery time.
	partitions []partition
	// sched is non-nil in scheduled-delivery mode (see UseScheduler).
	sched *scheduler
}

// partition is a transient bidirectional cut between two peer groups over a
// virtual-time window [from, until). until <= from means it never heals.
type partition struct {
	a, b        map[string]bool
	from, until time.Duration
}

func (p partition) blocks(from, to string, at time.Duration) bool {
	if at < p.from || (p.until > p.from && at >= p.until) {
		return false
	}
	return (p.a[from] && p.b[to]) || (p.b[from] && p.a[to])
}

// New creates an empty network with the default deterministic latency model
// (5–55 ms per link, derived from the address pair) and 2 ms per-hop
// processing delay.
func New() *Network {
	return &Network{
		peers:     map[string]Peer{},
		down:      map[string]bool{},
		caps:      map[string]byte{},
		links:     map[[2]string]bool{},
		latency:   DefaultLatency,
		procDelay: 2 * time.Millisecond,
		maxDepth:  256,
	}
}

// DefaultLatency derives a stable pseudo-random one-way latency in
// [5ms, 55ms) from the unordered address pair.
func DefaultLatency(a, b string) time.Duration {
	if a == b {
		return 0
	}
	if b < a {
		a, b = b, a
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(a + "|" + b))
	return 5*time.Millisecond + time.Duration(h.Sum32()%50)*time.Millisecond
}

// SetLatency replaces the link-latency model.
func (n *Network) SetLatency(fn func(a, b string) time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = fn
}

// SetProcDelay sets the per-hop processing delay added to delivered
// messages' virtual time.
func (n *Network) SetProcDelay(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.procDelay = d
}

// SetMaxDepth bounds the number of hops a single delivery chain may take
// before Send fails with ErrDepthExceeded (default 256), at the hop that hit
// the limit. Call it during setup, before traffic flows — harnesses with
// known-shallow routing use a tight bound so pathological forwarding cycles
// surface fast instead of riding out hundreds of hops.
func (n *Network) SetMaxDepth(d int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.maxDepth = d
}

// Add registers a peer; it replaces any previous peer at the same address. A
// peer with a `Caps() byte` method declares its capability byte with it; one
// without keeps the byte declared at its address before, so a wrapper put in
// front of a peer advertises what the peer did.
func (n *Network) Add(p Peer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[p.Addr()] = p
	if c, ok := p.(interface{ Caps() byte }); ok {
		n.caps[p.Addr()] = c.Caps()
	}
}

// PeerCaps returns the capability byte the peer at addr declared (see Add):
// the simulated answer to the handshake a TCP link opens with. It sends
// nothing and charges nothing. A down or unknown peer is unreachable, as a
// dial to it would be.
func (n *Network) PeerCaps(addr string) (byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.peers[addr]; !ok || n.down[addr] {
		return 0, ErrUnreachable{Addr: addr}
	}
	return n.caps[addr], nil
}

// Peer returns the peer at addr, or nil.
func (n *Network) Peer(addr string) Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peers[addr]
}

// Addrs returns all registered addresses, sorted.
func (n *Network) Addrs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.peers))
	for a := range n.peers {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// SetDown marks a peer unreachable (or reachable again); sends to it fail
// with ErrUnreachable. Used by the fault-tolerance experiments.
func (n *Network) SetDown(addr string, down bool) {
	n.mu.Lock()
	n.down[addr] = down
	n.mu.Unlock()
	if down {
		// Its connections die with it; survivors redial (and re-pay setup)
		// when they next talk to it — or it to them — after recovery.
		n.severLinks(addr)
	}
}

// Partition cuts all links between groupA and groupB for the virtual-time
// window [from, until). Pass until <= from for a partition that never heals.
// Sends across the cut fail with ErrUnreachable (sender-visible, like a
// refused connection); in scheduled mode a message already in flight when
// the partition forms is lost silently at delivery time.
func (n *Network) Partition(groupA, groupB []string, from, until time.Duration) {
	p := partition{a: map[string]bool{}, b: map[string]bool{}, from: from, until: until}
	for _, a := range groupA {
		p.a[a] = true
	}
	for _, b := range groupB {
		p.b[b] = true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions = append(n.partitions, p)
}

func (n *Network) blockedLocked(from, to string, at time.Duration) bool {
	for _, p := range n.partitions {
		if p.blocks(from, to, at) {
			return true
		}
	}
	return false
}

// ErrUnreachable is returned when the destination peer is down or unknown.
type ErrUnreachable struct {
	Addr string
}

func (e ErrUnreachable) Error() string {
	return fmt.Sprintf("simnet: peer %s unreachable", e.Addr)
}

// reachLocked looks up the peer at to for a frame leaving from at virtual time
// at, and returns it with the link's one-way latency. A down, unknown or
// partitioned-away destination is ErrUnreachable; a cut link loses its
// pricing state, so traffic after the partition heals re-pays setup. The
// caller holds n.mu.
func (n *Network) reachLocked(from, to string, at time.Duration) (Peer, time.Duration, error) {
	p, ok := n.peers[to]
	if !ok || n.down[to] {
		return nil, 0, ErrUnreachable{Addr: to}
	}
	if n.blockedLocked(from, to, at) {
		n.severLink(from, to)
		return nil, 0, ErrUnreachable{Addr: to}
	}
	return p, n.latency(from, to), nil
}

// account records one frame. link is the ordered (from, to) pair the frame
// rides: its first frame opens a persistent link and pays linkSetupOverhead
// on top of size; reuse pays size alone. The zero pair means no link charge
// — reply frames share the request's connection. The body size is computed
// by the caller (outside any lock) so that serialization cost is never paid
// while holding a mutex. Safe to call with or without mu held (see metricsMu
// ordering).
func (n *Network) account(link [2]string, size int, isRequest bool) {
	n.metricsMu.Lock()
	defer n.metricsMu.Unlock()
	if link != ([2]string{}) && !n.links[link] {
		n.links[link] = true
		n.metrics.LinksOpened++
		n.metrics.Bytes += linkSetupOverhead
	}
	n.metrics.Messages++
	if isRequest {
		n.metrics.Requests++
	}
	n.metrics.Bytes += int64(size)
}

// severLinks drops all persistent-link pricing state involving addr, in both
// directions: the next frame to or from it pays connection setup again. Called
// when a peer crashes, is marked down, or a send finds its path partitioned.
func (n *Network) severLinks(addr string) {
	n.metricsMu.Lock()
	for k := range n.links {
		if k[0] == addr || k[1] == addr {
			delete(n.links, k)
		}
	}
	n.metricsMu.Unlock()
}

// severLink drops one ordered link's pricing state.
func (n *Network) severLink(from, to string) {
	n.metricsMu.Lock()
	delete(n.links, [2]string{from, to})
	n.metricsMu.Unlock()
}

// ErrDepthExceeded is wrapped by the error Send returns to the last hop of a
// delivery chain past the forwarding-depth limit — almost always a routing
// loop. The submitter never sees it.
var ErrDepthExceeded = errors.New("forwarding depth limit exceeded; routing loop?")

// Send delivers a one-way message from msg.From to msg.To. In inline mode
// the destination's Deliver runs before Send returns; in scheduled mode the
// delivery is enqueued for the Run pump (and may be dropped, duplicated or
// delayed by injected faults). Either way the delivered message's At is
// msg.At plus link latency plus the processing delay, Hops is incremented,
// and Send reports only transport failure (ErrUnreachable, ErrDepthExceeded,
// xmltree.ErrFrame), never what Deliver returned.
//
// A mutable body crosses the link as SendFrame carries a frame. A frozen body
// is the codec's fixpoint already — immutable, its canonical serialization
// memoized, decoding that serialization reproduces it — so the receiver gets
// the alias and the link costs no codec work: a client resubmitting a known
// query sends the frozen prototype it already has.
//
// A down, unknown or partitioned-away destination fails with ErrUnreachable
// at send time in both modes — the refused-connection analog the
// fault-tolerance fallback in peers relies on. Faults injected after this
// check (drops, crashes before delivery) are silent: the message is recorded
// as dropped or lost in the scheduler trace, never reported to the sender.
func (n *Network) Send(msg *Message) error {
	if body := msg.Body; body != nil && !body.Frozen() {
		return n.SendFrame(msg, body.Stage)
	}
	size := frameOverhead // a frozen body's canonical size is a memo read
	if msg.Body != nil {
		size += msg.Body.ByteSize()
	}
	return n.send(msg, msg.Body, size)
}

// SendFrame is Send for the document stage writes, carried as a socket
// carries it (see carry). msg is the envelope; its Body is not read.
func (n *Network) SendFrame(msg *Message, stage func(*xmltree.FrameEncoder)) error {
	body, size, err := carry(msg.Kind, stage)
	if err != nil {
		return err
	}
	return n.send(msg, body, size)
}

// carry takes the document stage writes across a link: staged once into one
// string at the sender, then decoded with the zero-copy decoder on the
// receiver's side, so every simulated frame exercises the decoder the TCP
// transport uses (and chaos sweeps and the experiment tables inherit that
// coverage). The decoded document aliases the string and is born frozen, and
// the frame is priced at the mux header plus its length. A frame the socket
// would refuse, empty or past xmltree.MaxFrameBytes, is refused here with the
// same xmltree.ErrFrame.
//
// Staging runs first, outside every lock, before the destination is looked
// up: it is the analog of the sender writing its frame, and whatever stage
// does on the way (a payload store teaching what it ships inline) happens
// whether the send then succeeds or not.
func carry(kind string, stage func(*xmltree.FrameEncoder)) (*xmltree.Node, int, error) {
	enc := xmltree.GetFrameEncoder()
	stage(enc)
	if err := enc.Framable(); err != nil {
		enc.Release()
		return nil, 0, fmt.Errorf("simnet: %s: %w", kind, err)
	}
	frame := enc.String()
	enc.Release()
	body, err := xmltree.DecodeString(frame)
	if err != nil {
		return nil, 0, fmt.Errorf("simnet: %s body not wire-decodable: %w", kind, err)
	}
	return body, frameOverhead + len(frame), nil
}

// send routes msg's envelope with body, the document the receiver sees, priced
// at size bytes.
func (n *Network) send(msg *Message, body *xmltree.Node, size int) error {
	n.mu.Lock()
	if msg.Hops >= n.maxDepth {
		n.mu.Unlock()
		return fmt.Errorf("simnet: message %s from %s to %s at depth %d: %w",
			msg.Kind, msg.From, msg.To, msg.Hops, ErrDepthExceeded)
	}
	p, lat, err := n.reachLocked(msg.From, msg.To, msg.At)
	transit := lat + n.procDelay
	if s := n.sched; s != nil && err == nil {
		err = s.enqueueSendLocked(n, msg, body, transit, size)
		n.mu.Unlock()
		return err
	}
	n.mu.Unlock()
	if err != nil {
		return err
	}
	n.account([2]string{msg.From, msg.To}, size, false)
	_ = p.Deliver(n, &Message{From: msg.From, To: msg.To, Kind: msg.Kind, Body: body,
		At: msg.At + transit, Hops: msg.Hops + 1}) // the receiver's to record, as on a socket
	return nil
}

// Request performs a synchronous request/response exchange: the document
// stage writes crosses to msg.To as SendFrame carries it, Serve sees the
// decoded frame, and the reply crosses back the same way, so the caller holds
// a decoded, born-frozen document and never the node Serve returned. msg is
// the envelope (From, To, Kind, At); its Body is not read. A nil reply is an
// error, as an empty reply frame is on a socket.
//
// Both directions are accounted; the returned time is the virtual time at
// which the reply arrives back at the caller. Requests stay synchronous even
// in scheduled mode (they model a blocking call inside one processing step),
// but they honor partitions and the link's drop probability: a dropped
// request fails with ErrUnreachable, the timeout analog the fetch fallback
// handles.
func (n *Network) Request(msg *Message, stage func(*xmltree.FrameEncoder)) (*xmltree.Node, time.Duration, error) {
	body, size, err := carry(msg.Kind, stage)
	if err != nil {
		return nil, msg.At, err
	}
	n.mu.Lock()
	p, lat, err := n.reachLocked(msg.From, msg.To, msg.At)
	dropped := err == nil && n.sched != nil && n.sched.dropRequestLocked(msg.From, msg.To, msg.Kind, msg.At)
	at := msg.At + lat + n.procDelay
	n.mu.Unlock()
	if err != nil {
		return nil, msg.At, err
	}
	n.account([2]string{msg.From, msg.To}, size, true)
	if dropped {
		return nil, at, ErrUnreachable{Addr: msg.To}
	}
	reply, err := p.Serve(n, &Message{From: msg.From, To: msg.To, Kind: msg.Kind, Body: body, At: at})
	if err == nil && reply == nil {
		err = errors.New("empty reply")
	}
	if err == nil {
		reply, size, err = carry(msg.Kind+"-reply", reply.Stage)
	}
	if err != nil {
		return nil, at, fmt.Errorf("simnet: request %s to %s: %w", msg.Kind, msg.To, err)
	}
	// The reply rides the request's connection: frame cost only, no link.
	n.account([2]string{}, size, false)
	return reply, at + lat, nil
}

// Metrics returns a snapshot of the accumulated counters.
func (n *Network) Metrics() Metrics {
	n.metricsMu.Lock()
	defer n.metricsMu.Unlock()
	return n.metrics
}

// ResetMetrics zeroes the counters and forgets open links, so each measured
// run prices its own connection establishment; experiments call it between
// runs.
func (n *Network) ResetMetrics() {
	n.metricsMu.Lock()
	defer n.metricsMu.Unlock()
	n.metrics = Metrics{}
	clear(n.links)
}
