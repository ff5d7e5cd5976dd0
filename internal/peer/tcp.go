package peer

import (
	"errors"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"repro/internal/simnet"
	"repro/internal/wire"
	"repro/internal/xmltree"
)

// TCP is the Transport over real sockets: a wire.LinkPool outbound and, once
// Listen has run, a wire.Server inbound, whose Addr and Errors (accept and
// link errors, hostile frames, every error the peer's Deliver or Serve
// returned) are this transport's. A frame's document name is its message kind
// and a result travels as the <mqp> it is, addressed to its target, both as on
// simnet; each <mqp> that arrives is logged as `plan <id>`, and a request's
// reply comes back as a decoded frame. A link has no virtual clock and names no
// sender: a message's At, Hops and From are zero. A reference that misses
// is fetched back from From (blob.go), so this transport advertises no
// capability byte, and a neighbor ships it every payload inline.
type TCP struct {
	*wire.Server
	pool *wire.LinkPool
	peer atomic.Pointer[simnet.Peer]
}

// NewTCP returns a transport that can send; Listen makes it receive.
func NewTCP() *TCP { return &TCP{pool: wire.NewLinkPool()} }

// Listen starts accepting links on addr. A peer attached before it (peer.New)
// misses no frame; a frame that finds none attached is an error on Errors().
func (t *TCP) Listen(addr string) (err error) {
	t.Server, err = wire.Listen(addr, t.handle)
	return err
}

// Close closes the outbound links and the server, waiting out handlers in flight.
func (t *TCP) Close() error {
	t.pool.Close()
	return t.Server.Close()
}

// Add implements Transport: p handles every frame from here on.
func (t *TCP) Add(p simnet.Peer) { t.peer.Store(&p) }

func (t *TCP) handle(doc *xmltree.Node) (*xmltree.Node, error) {
	pp := t.peer.Load()
	if pp == nil {
		return nil, fmt.Errorf("peer: <%s> frame before a peer is attached", doc.Name)
	}
	p := *pp
	msg := &simnet.Message{To: p.Addr(), Kind: doc.Name, Body: doc}
	switch doc.Name {
	case KindMQP:
		log.Printf("plan %s", doc.AttrDefault("id", ""))
	case KindRegister, KindDeregister:
	default:
		return p.Serve(nil, msg) // which refuses a kind it does not know
	}
	return nil, p.Deliver(nil, msg)
}

// SendFrame implements Transport: the frame leaves on the pooled link to msg.To.
func (t *TCP) SendFrame(msg *simnet.Message, stage func(*xmltree.FrameEncoder)) error {
	return linkErr(msg.To, t.pool.SendFrame(msg.To, stage))
}

// Request implements Transport over the link's correlated call to msg.To. A
// link has no virtual clock: the reply arrives at msg.At.
func (t *TCP) Request(msg *simnet.Message, stage func(*xmltree.FrameEncoder)) (*xmltree.Node, time.Duration, error) {
	reply, _, err := t.pool.Call(msg.To, stage)
	return reply, msg.At, linkErr(msg.To, err)
}

// PeerCaps implements Transport: the byte the neighbor's server answered the
// link handshake with, dialing when no link is open.
func (t *TCP) PeerCaps(to string) (byte, error) { return t.pool.PeerCaps(to) }

// linkErr reports a link that could not be dialed, shaken hands with or
// written to the way simnet reports a dead peer: the fallback over NextHops is
// one piece of code. A failed remote handler (the link is healthy) and an
// unframable document (nothing touched a link) stay what they are.
func linkErr(to string, err error) error {
	if err == nil || errors.Is(err, wire.ErrRemote) || errors.Is(err, xmltree.ErrFrame) {
		return err
	}
	return simnet.ErrUnreachable{Addr: to}
}
