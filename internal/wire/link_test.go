package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xmltree"
)

// countingListener counts accepted connections so tests can prove link reuse
// (many frames, one connection) and re-establishment (reap, then dial anew).
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (c *countingListener) Accept() (net.Conn, error) {
	conn, err := c.Listener.Accept()
	if err == nil {
		c.accepts.Add(1)
	}
	return conn, err
}

// listenCounting starts a Server on an ephemeral port with accept counting.
func listenCounting(t *testing.T, h Handler) (*Server, *countingListener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	s := &Server{ln: cl, errs: make(chan error, 16)}
	go s.loop(h)
	t.Cleanup(func() { s.Close() })
	return s, cl
}

// openLink dials addr and completes the handshake by hand, for tests that
// then put raw frame bytes on the connection.
func openLink(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var caps [1]byte
	if _, err := conn.Write(opened(0, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, caps[:]); err != nil {
		t.Fatalf("server did not answer the handshake: %v", err)
	}
	return conn
}

// TestLinkConcurrentSenders: many goroutines share one link; every caller
// gets the reply correlated to its own frame, and the whole exchange rides a
// single TCP connection.
func TestLinkConcurrentSenders(t *testing.T) {
	srv, cl := listenCounting(t, func(doc *xmltree.Node) (*xmltree.Node, error) {
		return doc, nil // echo
	})
	pool := NewLinkPool()
	defer pool.Close()

	const senders, perSender = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, senders*perSender)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				id := fmt.Sprintf("s%d-f%d", g, i)
				doc := xmltree.ElemAttrs("mqp", xmltree.Attr{Name: "id", Value: id})
				reply, _, err := pool.Call(srv.Addr(), func(e *xmltree.FrameEncoder) { e.Node(doc) })
				if err != nil {
					errs <- err
					return
				}
				if got := reply.AttrDefault("id", ""); got != id {
					errs <- fmt.Errorf("reply correlation broken: sent %s, got %s", id, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := cl.accepts.Load(); n != 1 {
		t.Fatalf("%d frames used %d connections, want 1", senders*perSender, n)
	}
}

// TestLinkFireAndForgetAndLegacyCoexist: corr-0 frames stream over one
// connection and the handler sees every one. (The name is older than the
// single framing; there is no legacy sender left to coexist with.)
func TestLinkFireAndForgetAndLegacyCoexist(t *testing.T) {
	got := make(chan string, 64)
	srv, cl := listenCounting(t, func(doc *xmltree.Node) (*xmltree.Node, error) {
		got <- doc.AttrDefault("id", "")
		return nil, nil
	})
	pool := NewLinkPool()
	defer pool.Close()

	const frames = 10
	for i := 0; i < frames; i++ {
		doc := xmltree.ElemAttrs("mqp", xmltree.Attr{Name: "id", Value: fmt.Sprintf("f%d", i)})
		if err := pool.SendFrame(srv.Addr(), node(doc)); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for i := 0; i < frames; i++ {
		select {
		case id := <-got:
			seen[id] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out with %d of %d documents", len(seen), frames)
		}
	}
	if len(seen) != frames {
		t.Fatalf("missing documents: %v", seen)
	}
	if n := cl.accepts.Load(); n != 1 {
		t.Fatalf("%d frames used %d connections, want 1", frames, n)
	}
}

// TestLinkBrokenRedial: a peer that dies mid-conversation yields a clean
// error, and the next use of the pool re-establishes a fresh link to the
// restarted peer.
func TestLinkBrokenRedial(t *testing.T) {
	got := make(chan string, 16)
	h := func(doc *xmltree.Node) (*xmltree.Node, error) {
		got <- doc.AttrDefault("id", "")
		return nil, nil
	}
	srv, _ := listenCounting(t, h)
	addr := srv.Addr()
	pool := NewLinkPool()
	defer pool.Close()

	if err := pool.SendFrame(addr, node(xmltree.ElemAttrs("mqp", xmltree.Attr{Name: "id", Value: "a"}))); err != nil {
		t.Fatal(err)
	}
	<-got

	// Kill the server; the pooled link is now stale.
	srv.Close()
	// Give the reader goroutine a moment to observe the close.
	deadline := time.Now().Add(2 * time.Second)
	pool.mu.Lock()
	l := pool.links[addr]
	pool.mu.Unlock()
	for l != nil && !l.isBroken() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	// Restart on the same address and send again: the pool must redial.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	srv2 := &Server{ln: ln, errs: make(chan error, 16)}
	go srv2.loop(h)
	defer srv2.Close()

	if err := pool.SendFrame(addr, node(xmltree.ElemAttrs("mqp", xmltree.Attr{Name: "id", Value: "b"}))); err != nil {
		t.Fatalf("send after peer restart: %v", err)
	}
	select {
	case id := <-got:
		if id != "b" {
			t.Fatalf("got %q after restart", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("document lost after redial")
	}
}

// TestLinkMidFrameCrashReported: a client dying mid-frame is a reported
// server error; dying at a frame boundary is a clean close.
func TestLinkMidFrameCrashReported(t *testing.T) {
	srv, _ := listenCounting(t, func(doc *xmltree.Node) (*xmltree.Node, error) { return nil, nil })

	// Clean: handshake, one whole frame, close at the boundary.
	whole := linkFrame(0, `<mqp id="x"/>`)
	conn := openLink(t, srv.Addr())
	conn.Write(whole)
	conn.Close()

	// Dirty: handshake, a header promising 13 bytes, then death after 3.
	conn2 := openLink(t, srv.Addr())
	conn2.Write(whole[:12+3])
	conn2.Close()

	select {
	case err := <-srv.Errors():
		if !strings.Contains(err.Error(), "payload") {
			t.Fatalf("unexpected error for mid-frame death: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mid-frame death never reported")
	}
	// The clean close must not have queued an error.
	select {
	case err := <-srv.Errors():
		t.Fatalf("clean boundary close reported: %v", err)
	default:
	}
}

// TestLinkIdleReapReestablish: every use of the pool reaps links idle past
// idleTimeout, and the send that reaped one dials a new connection
// transparently.
func TestLinkIdleReapReestablish(t *testing.T) {
	got := make(chan string, 16)
	srv, cl := listenCounting(t, func(doc *xmltree.Node) (*xmltree.Node, error) {
		got <- doc.AttrDefault("id", "")
		return nil, nil
	})
	pool := NewLinkPool()
	defer pool.Close()
	defer func(d time.Duration) { idleTimeout = d }(idleTimeout)
	idleTimeout = 0

	if err := pool.SendFrame(srv.Addr(), node(xmltree.ElemAttrs("mqp", xmltree.Attr{Name: "id", Value: "a"}))); err != nil {
		t.Fatal(err)
	}
	<-got
	pool.mu.Lock()
	first := pool.links[srv.Addr()]
	pool.mu.Unlock()
	if err := pool.SendFrame(srv.Addr(), node(xmltree.ElemAttrs("mqp", xmltree.Attr{Name: "id", Value: "b"}))); err != nil {
		t.Fatalf("send after reap: %v", err)
	}
	<-got
	pool.mu.Lock()
	second := pool.links[srv.Addr()]
	pool.mu.Unlock()
	if first == nil || second == nil || second == first {
		t.Fatalf("links %p then %p: the idle link was not replaced", first, second)
	}
	if n := cl.accepts.Load(); n != 2 {
		t.Fatalf("accepts = %d, want 2 (one per link generation)", n)
	}
}

// TestLinkOversizeFramePoisonsFrameOnly: a document exceeding
// xmltree.MaxFrameBytes fails before touching the wire; the link keeps
// carrying other frames.
func TestLinkOversizeFramePoisonsFrameOnly(t *testing.T) {
	got := make(chan string, 16)
	srv, cl := listenCounting(t, func(doc *xmltree.Node) (*xmltree.Node, error) {
		got <- doc.AttrDefault("id", "")
		return nil, nil
	})
	pool := NewLinkPool()
	defer pool.Close()

	if err := pool.SendFrame(srv.Addr(), node(xmltree.ElemAttrs("mqp", xmltree.Attr{Name: "id", Value: "a"}))); err != nil {
		t.Fatal(err)
	}
	<-got

	huge := xmltree.Elem("mqp", xmltree.ElemText("t", strings.Repeat("x", xmltree.MaxFrameBytes+1)))
	if err := pool.SendFrame(srv.Addr(), node(huge)); err == nil {
		t.Fatal("oversized frame accepted")
	} else if !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("unexpected oversize error: %v", err)
	}

	if err := pool.SendFrame(srv.Addr(), node(xmltree.ElemAttrs("mqp", xmltree.Attr{Name: "id", Value: "b"}))); err != nil {
		t.Fatalf("send after oversized frame: %v", err)
	}
	<-got
	if n := cl.accepts.Load(); n != 1 {
		t.Fatalf("accepts = %d, want 1 — the oversized frame must not break the link", n)
	}
}

// TestLinkTooDeepFramePoisonsFrameOnly: a frame nested one level past
// xmltree.MaxDepth reaches the server (the sender does not look at depth), is
// refused there and reported as xmltree.ErrFrame, never reaches the handler,
// and the next frame on the same link is served.
func TestLinkTooDeepFramePoisonsFrameOnly(t *testing.T) {
	got := make(chan string, 16)
	srv, cl := listenCounting(t, func(doc *xmltree.Node) (*xmltree.Node, error) {
		got <- doc.AttrDefault("id", "")
		return nil, nil
	})
	pool := NewLinkPool()
	defer pool.Close()

	deep := xmltree.ElemAttrs("mqp", xmltree.Attr{Name: "id", Value: "deep"})
	for i := 0; i < xmltree.MaxDepth; i++ {
		deep = xmltree.Elem("a", deep)
	}
	if err := pool.SendFrame(srv.Addr(), node(deep)); err != nil {
		t.Fatalf("a deep frame is the receiver's to refuse: %v", err)
	}
	select {
	case err := <-srv.Errors():
		if !errors.Is(err, xmltree.ErrFrame) || !strings.Contains(err.Error(), "nested deeper than") {
			t.Fatalf("too-deep frame reported as %v, want xmltree.ErrFrame", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("too-deep frame not reported")
	}

	if err := pool.SendFrame(srv.Addr(), node(xmltree.ElemAttrs("mqp", xmltree.Attr{Name: "id", Value: "b"}))); err != nil {
		t.Fatalf("send after too-deep frame: %v", err)
	}
	if id := <-got; id != "b" {
		t.Fatalf("handler saw frame %q; the too-deep frame must never reach it", id)
	}
	if n := cl.accepts.Load(); n != 1 {
		t.Fatalf("accepts = %d, want 1 — the too-deep frame must not break the link", n)
	}
}

// TestLinkWriteDeadlinePerFrame: the write deadline is armed per frame, not
// per connection. A link older than writeTimeout must still send instantly
// (the old per-connection deadline would fail here), and a genuinely
// stalling reader must surface a timeout error in ~writeTimeout rather than
// blocking forever.
func TestLinkWriteDeadlinePerFrame(t *testing.T) {
	oldW := writeTimeout
	writeTimeout = 500 * time.Millisecond
	defer func() { writeTimeout = oldW }()

	got := make(chan string, 16)
	srv, _ := listenCounting(t, func(doc *xmltree.Node) (*xmltree.Node, error) {
		got <- doc.AttrDefault("id", "")
		return nil, nil
	})
	pool := NewLinkPool()
	defer pool.Close()

	if err := pool.SendFrame(srv.Addr(), node(xmltree.ElemAttrs("mqp", xmltree.Attr{Name: "id", Value: "a"}))); err != nil {
		t.Fatal(err)
	}
	<-got
	// Outlive the deadline that was armed for the first frame; the next
	// frame must re-arm rather than inherit an expired deadline.
	time.Sleep(writeTimeout + 200*time.Millisecond)
	if err := pool.SendFrame(srv.Addr(), node(xmltree.ElemAttrs("mqp", xmltree.Attr{Name: "id", Value: "b"}))); err != nil {
		t.Fatalf("send on aged link hit a stale deadline: %v", err)
	}
	<-got

	// Stalling reader: answers the handshake and then never reads. Filling
	// the kernel buffers with 4MiB frames must end in a timeout, not a hang.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if readHandshake(conn) != nil {
			return
		}
		conn.Write([]byte{0})
		time.Sleep(10 * time.Second) // never read again
	}()
	l, err := dialLink(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	big := xmltree.Elem("mqp", xmltree.ElemText("t", strings.Repeat("y", 4<<20)))
	enc := xmltree.GetFrameEncoder()
	defer enc.Release()
	enc.Node(big)
	start := time.Now()
	for i := 0; i < 64; i++ {
		if err = l.send(0, enc); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("writes to a stalling reader never failed")
	}
	if elapsed := time.Since(start); elapsed > 10*writeTimeout {
		t.Fatalf("stalled write took %v, want ~%v", elapsed, writeTimeout)
	}
}

// TestMux2CapabilityNegotiation: the handshake carries one capability byte,
// the server's. The dialer always sends the reserved 0 after the magic, reads
// the server's byte, and the link then carries frames like any other; a server
// with nothing to advertise answers 0.
func TestMux2CapabilityNegotiation(t *testing.T) {
	// A bare listener records what the dialer sends and answers CapBlobRef.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hello := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, len(linkMagic)+1)
		if _, err := io.ReadFull(conn, buf); err != nil {
			return
		}
		hello <- buf
		conn.Write([]byte{CapBlobRef})
		io.Copy(io.Discard, conn) // hold the link open until the pool closes it
	}()
	pool := NewLinkPool()
	defer pool.Close()
	caps, err := pool.PeerCaps(ln.Addr().String())
	if err != nil || caps != CapBlobRef {
		t.Fatalf("peer caps = %#x, %v; want CapBlobRef", caps, err)
	}
	if got := <-hello; string(got) != linkMagic+"\x00" {
		t.Fatalf("dialer opened with %q, want %q", got, linkMagic+"\x00")
	}

	srv, cl := listenCounting(t, func(doc *xmltree.Node) (*xmltree.Node, error) {
		return doc, nil
	})
	srv.SetCaps(CapBlobRef)
	if caps, err = pool.PeerCaps(srv.Addr()); err != nil || caps != CapBlobRef {
		t.Fatalf("server caps = %#x, %v; want CapBlobRef", caps, err)
	}
	// The negotiated link carries frames like any other.
	doc := xmltree.ElemAttrs("mqp", xmltree.Attr{Name: "id", Value: "m2"})
	reply, _, err := pool.Call(srv.Addr(), func(e *xmltree.FrameEncoder) { e.Node(doc) })
	if err != nil {
		t.Fatal(err)
	}
	if reply.AttrDefault("id", "") != "m2" {
		t.Fatalf("reply = %s", reply)
	}
	if n := cl.accepts.Load(); n != 1 {
		t.Fatalf("negotiation + call used %d connections, want 1", n)
	}

	bare, _ := listenCounting(t, func(doc *xmltree.Node) (*xmltree.Node, error) { return nil, nil })
	if caps, err = pool.PeerCaps(bare.Addr()); err != nil || caps != 0 {
		t.Fatalf("capability-less server answered %#x, %v; want 0", caps, err)
	}
}

// TestLinkHandshakeStallIsOneDial: a server that accepts and never answers
// the handshake fails the send with the read deadline's own error after one
// dial — no second attempt, no lost cause.
func TestLinkHandshakeStallIsOneDial(t *testing.T) {
	old := readTimeout
	readTimeout = 100 * time.Millisecond
	defer func() { readTimeout = old }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn)
	go func() {
		defer close(accepted)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn // held open, never answered
		}
	}()
	// The pool's dials complete in the listener's backlog whether or not
	// anyone accepts them, so drain accepts only after the send has failed:
	// everything queued ahead of the sentinel is the pool's.
	pool := NewLinkPool()
	defer pool.Close()
	err = pool.SendFrame(ln.Addr().String(), node(xmltree.Elem("x")))
	if !errors.Is(err, os.ErrDeadlineExceeded) || !strings.Contains(err.Error(), "link handshake to "+ln.Addr().String()) {
		t.Fatalf("send to a stalled handshake = %v, want the handshake's deadline error", err)
	}
	sentinel, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sentinel.Close()
	dials := 0
	for conn := range accepted {
		defer conn.Close()
		if conn.RemoteAddr().String() == sentinel.LocalAddr().String() {
			break
		}
		dials++
	}
	if dials != 1 {
		t.Fatalf("a stalled handshake cost %d dials, want 1", dials)
	}
}
