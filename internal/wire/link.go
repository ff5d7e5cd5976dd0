package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xmltree"
)

// The dialing end of the protocol (see the package comment): Link is one
// connection, LinkPool keeps one Link per peer address.

// idleTimeout is how long a pooled link may sit unused before the pool's
// opportunistic reaping closes it. The server closes its side of an idle link
// after readTimeout; the client bound is slightly longer so the common case
// is the server closing cleanly at a frame boundary first. A variable so
// tests can shorten it.
var idleTimeout = 45 * time.Second

// ErrRemote reports that the remote handler failed on a Call frame. The link
// itself is healthy: a remote failure is never grounds for a redial.
var ErrRemote = errors.New("wire: remote handler failed")

// errLinkBroken marks a link whose connection already failed; callers inside
// the pool redial instead of surfacing it.
var errLinkBroken = errors.New("wire: link broken")

// Link is one multiplexed connection to a peer. Many goroutines may send on
// a link concurrently; frame writes are serialized, replies are demultiplexed
// by a dedicated reader goroutine.
type Link struct {
	addr string
	conn net.Conn
	// peerCaps is the capability byte the server answered the handshake
	// with.
	peerCaps byte

	// wmu serializes whole frames onto the connection; each frame sets its
	// own write deadline, so one stalled frame cannot charge its wait to a
	// later sender's budget.
	wmu sync.Mutex

	corr atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan []byte
	broken  bool
	lastUse time.Time
}

// PeerCaps returns the capability byte the peer advertised during the
// handshake.
func (l *Link) PeerCaps() byte { return l.peerCaps }

// dialLink connects and performs the handshake: magic, the reserved zero
// byte, then one capability byte back from the server before any frame. A
// server that never answers fails the dial with the read's own error.
func dialLink(addr string) (*Link, error) {
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	var reply [1]byte
	_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err = conn.Write(append([]byte(linkMagic), 0)); err == nil {
		_ = conn.SetReadDeadline(time.Now().Add(readTimeout))
		_, err = io.ReadFull(conn, reply[:])
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: link handshake to %s: %w", addr, err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	l := &Link{
		addr:     addr,
		conn:     conn,
		peerCaps: reply[0],
		pending:  map[uint64]chan []byte{},
		lastUse:  time.Now(),
	}
	go l.readLoop()
	return l, nil
}

// readLoop delivers reply frames to their waiting callers. It runs for the
// life of the connection; any read error (including the peer idle-closing
// the link) marks the link broken and wakes every waiter.
func (l *Link) readLoop() {
	br := bufio.NewReader(l.conn)
	for {
		corr, payload, err := readLinkFrame(br)
		if err != nil {
			l.fail()
			return
		}
		l.mu.Lock()
		ch := l.pending[corr]
		delete(l.pending, corr)
		l.mu.Unlock()
		if ch != nil {
			ch <- payload
		}
	}
}

// fail marks the link broken and wakes all reply waiters with a closed
// channel (distinct from a delivered zero-length payload, which means the
// remote handler failed).
func (l *Link) fail() {
	l.conn.Close()
	l.mu.Lock()
	l.broken = true
	for corr, ch := range l.pending {
		delete(l.pending, corr)
		close(ch)
	}
	l.mu.Unlock()
}

func (l *Link) isBroken() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

func (l *Link) touch() {
	l.mu.Lock()
	l.lastUse = time.Now()
	l.mu.Unlock()
}

// idle reports whether the link has no in-flight calls and has been unused
// since before cutoff.
func (l *Link) idle(cutoff time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending) == 0 && l.lastUse.Before(cutoff)
}

// send writes one frame, serialized against the link's other senders.
func (l *Link) send(corr uint64, enc *xmltree.FrameEncoder) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.isBroken() {
		return errLinkBroken
	}
	if err := writeLinkFrame(l.conn, corr, enc); err != nil {
		// A write error leaves the stream position unknowable; the link is
		// unusable for everyone.
		l.fail()
		return fmt.Errorf("wire: send to %s: %w", l.addr, err)
	}
	l.touch()
	return nil
}

// call sends one frame with a fresh correlation id and waits for its reply.
func (l *Link) call(enc *xmltree.FrameEncoder) (*xmltree.Node, []byte, error) {
	corr := l.corr.Add(1)
	if corr == 0 { // 0 is the fire-and-forget id; skip it on wraparound
		corr = l.corr.Add(1)
	}
	ch := make(chan []byte, 1)
	l.mu.Lock()
	if l.broken {
		l.mu.Unlock()
		return nil, nil, errLinkBroken
	}
	l.pending[corr] = ch
	l.mu.Unlock()
	if err := l.send(corr, enc); err != nil {
		l.mu.Lock()
		delete(l.pending, corr)
		l.mu.Unlock()
		return nil, nil, err
	}
	timer := time.NewTimer(readTimeout)
	defer timer.Stop()
	select {
	case payload, ok := <-ch:
		if !ok {
			return nil, nil, fmt.Errorf("wire: link to %s broke awaiting reply", l.addr)
		}
		if len(payload) == 0 {
			return nil, nil, fmt.Errorf("wire: call to %s: %w", l.addr, ErrRemote)
		}
		doc, err := xmltree.Decode(payload)
		if err != nil {
			return nil, nil, fmt.Errorf("wire: reply from %s: %w", l.addr, err)
		}
		return doc, payload, nil
	case <-timer.C:
		l.mu.Lock()
		delete(l.pending, corr)
		l.mu.Unlock()
		return nil, nil, fmt.Errorf("wire: call to %s: no reply within %v", l.addr, readTimeout)
	}
}

func (l *Link) close() { l.fail() }

// LinkPool keeps one multiplexed link per peer address and dials on demand.
// It is safe for concurrent use; all senders to one address share its link.
type LinkPool struct {
	mu    sync.Mutex
	links map[string]*Link
	dials map[string]*pendingDial
}

// pendingDial single-flights connection establishment: a burst of first
// sends to one address performs one dial and shares the resulting link,
// instead of racing N connections for N-1 of them to be thrown away.
type pendingDial struct {
	done chan struct{}
	l    *Link
	err  error
}

// NewLinkPool returns an empty pool.
func NewLinkPool() *LinkPool {
	return &LinkPool{links: map[string]*Link{}, dials: map[string]*pendingDial{}}
}

// PeerCaps returns the capability byte the peer at addr advertised,
// dialing a link if none is cached. Zero means the peer has nothing to
// advertise: payloads must stay inline.
func (p *LinkPool) PeerCaps(addr string) (byte, error) {
	l, _, err := p.get(addr)
	if err != nil {
		return 0, err
	}
	return l.PeerCaps(), nil
}

// get returns a healthy link to addr, dialing if necessary. cached reports
// whether the link predates this call — only a cached link's failure warrants
// a redial retry (it may simply have been idle-closed by the peer).
func (p *LinkPool) get(addr string) (l *Link, cached bool, err error) {
	now := time.Now()
	p.mu.Lock()
	p.reapLocked(now.Add(-idleTimeout))
	if l := p.links[addr]; l != nil && !l.isBroken() {
		l.touch()
		p.mu.Unlock()
		return l, true, nil
	}
	delete(p.links, addr)
	if d := p.dials[addr]; d != nil {
		p.mu.Unlock()
		<-d.done
		if d.err != nil {
			return nil, false, d.err
		}
		// From the joiner's perspective the link predates its own send, so
		// a failure on it still earns the one redial retry.
		return d.l, true, nil
	}
	d := &pendingDial{done: make(chan struct{})}
	p.dials[addr] = d
	p.mu.Unlock()

	l, err = dialLink(addr)
	p.mu.Lock()
	delete(p.dials, addr)
	d.l, d.err = l, err
	if err == nil {
		p.links[addr] = l
	}
	p.mu.Unlock()
	close(d.done)
	if err != nil {
		return nil, false, err
	}
	return l, false, nil
}

// drop removes l from the pool (if still current) and closes it.
func (p *LinkPool) drop(l *Link) {
	p.mu.Lock()
	if p.links[l.addr] == l {
		delete(p.links, l.addr)
	}
	p.mu.Unlock()
	l.close()
}

// withLink runs op on a link to addr. If a cached link fails — stale links
// are expected: the peer idle-closes its side after readTimeout — the pool
// redials once and retries. A fresh dial's failure, or a remote handler
// error (the link is healthy), is returned as-is.
func (p *LinkPool) withLink(addr string, op func(*Link) error) error {
	l, cached, err := p.get(addr)
	if err != nil {
		return err
	}
	if err = op(l); err == nil || errors.Is(err, ErrRemote) {
		return err
	}
	p.drop(l)
	if !cached {
		return err
	}
	if l, _, err = p.get(addr); err != nil {
		return err
	}
	if err = op(l); err != nil && !errors.Is(err, ErrRemote) {
		p.drop(l)
	}
	return err
}

// stage fills a pooled frame encoder and bounds the result. An oversized
// document poisons only that frame: nothing has touched the wire, so the
// link keeps carrying other senders' frames.
func stage(fill func(*xmltree.FrameEncoder)) (*xmltree.FrameEncoder, error) {
	enc := xmltree.GetFrameEncoder()
	fill(enc)
	if err := enc.Framable(); err != nil {
		enc.Release()
		return nil, err
	}
	return enc, nil
}

// SendFrame sends one fire-and-forget document to addr over the pooled link:
// fill stages the frame (typically algebra.EncodeFrame) into one buffer, and
// the header and that buffer leave in one vectored write.
func (p *LinkPool) SendFrame(addr string, fill func(*xmltree.FrameEncoder)) error {
	enc, err := stage(fill)
	if err != nil {
		return err
	}
	defer enc.Release()
	return p.withLink(addr, func(l *Link) error { return l.send(0, enc) })
}

// Call streams one document to addr and waits for the correlated reply,
// returning it with its retained frame buffer (see ReadFrame for the
// ownership rule). A zero-length reply reports a remote handler failure as
// ErrRemote.
func (p *LinkPool) Call(addr string, fill func(*xmltree.FrameEncoder)) (*xmltree.Node, []byte, error) {
	enc, err := stage(fill)
	if err != nil {
		return nil, nil, err
	}
	defer enc.Release()
	var doc *xmltree.Node
	var frame []byte
	err = p.withLink(addr, func(l *Link) error {
		var cerr error
		doc, frame, cerr = l.call(enc)
		return cerr
	})
	return doc, frame, err
}

func (p *LinkPool) reapLocked(cutoff time.Time) int {
	n := 0
	for addr, l := range p.links {
		if l.isBroken() || l.idle(cutoff) {
			delete(p.links, addr)
			l.close()
			n++
		}
	}
	return n
}

// Close closes every pooled link.
func (p *LinkPool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for addr, l := range p.links {
		delete(p.links, addr)
		l.close()
	}
	return nil
}
