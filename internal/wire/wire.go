// Package wire is the link layer under internal/peer's TCP Transport (what
// cmd/mqpd runs) and under cmd/mqpquery: documents over real sockets, and
// nothing of what is in them. It speaks one protocol: persistent multiplexed links.
//
// A peer keeps one connection per neighbor (LinkPool) and multiplexes
// documents over it instead of paying a dial, a TCP handshake and a close
// per hop. The dialer opens with the 4-byte magic "MUX2" and one reserved
// byte, always 0 and ignored by the server; the server (Server) answers with
// its capability byte, which LinkPool.PeerCaps reports; and from then on both
// directions carry frames of the form
//
//	4-byte big-endian payload length | 8-byte big-endian correlation id | payload
//
// where the payload is one canonical XML document of at most
// xmltree.MaxFrameBytes. A frame with correlation id 0 is fire-and-forget; a nonzero id requests a
// reply frame carrying the same id, where a zero-length reply payload reports
// a remote handler failure. Concurrent senders share one link: writes are
// serialized per frame (each under its own writeTimeout), replies are matched
// to waiters by correlation id. A connection that opens with anything but
// the handshake is reported on Server.Errors and closed. Both ends read
// frames with readLinkFrame and write them with writeLinkFrame: the header
// and the FrameEncoder's one buffer, in one vectored write.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/xmltree"
)

// DialTimeout bounds connection establishment.
const DialTimeout = 5 * time.Second

// writeTimeout bounds how long one frame write may block. The deadline is
// re-armed per frame — a connection that has been open for minutes still gets
// the full budget for each new frame, and one stalling reader cannot charge
// its delay to a later sender's frame. A variable (not a const) so tests can
// shorten it.
var writeTimeout = 30 * time.Second

// readTimeout bounds each blocking read a peer can stall: the handshake on
// either end, one frame on the server, and the wait for a Call's reply — so
// a peer that connects and then goes silent cannot pin a goroutine forever.
// A link idle past it at a frame boundary is closed by the server. A
// variable (not a const) so tests can shorten it.
var readTimeout = 30 * time.Second

// linkMagic opens every connection; the dialer's reserved byte follows it and
// the server answers with its capability byte before the first frame.
const linkMagic = "MUX2"

// CapBlobRef advertises that this endpoint holds a content-addressed
// payload store and accepts <blob fp="..."/> by-reference payload sections
// (internal/blobstore); senders must keep payloads inline on links whose
// peer never advertised it.
const CapBlobRef byte = 0x01

// readHandshake consumes the dialer's opening bytes: the magic and the
// reserved byte, which it discards.
func readHandshake(r io.Reader) error {
	var hello [len(linkMagic) + 1]byte
	if _, err := io.ReadFull(r, hello[:]); err != nil {
		return err
	}
	if string(hello[:len(linkMagic)]) != linkMagic {
		return fmt.Errorf("bad magic %q", hello[:len(linkMagic)])
	}
	return nil
}

// readPayload reads exactly n payload bytes, refusing a length beyond
// xmltree.MaxFrameBytes before allocating for it. A stream that ends early is
// an error (io.ErrUnexpectedEOF), never a hang on bytes that will not come.
func readPayload(r io.Reader, n uint32) ([]byte, error) {
	if n > xmltree.MaxFrameBytes {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, xmltree.MaxFrameBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: frame payload: %w", err)
	}
	return payload, nil
}

// readLinkFrame reads one frame: the 12-byte header, then the bounded
// payload. It is the only parser of the link header; server and dialer both
// read through it (the header is peeked in the reader's own buffer, so a
// frame costs no allocation but its payload). A zero-length payload is
// well-formed here — it is how a reply reports a handler failure — so the
// server rejects it for requests.
func readLinkFrame(br *bufio.Reader) (corr uint64, payload []byte, err error) {
	hdr, err := br.Peek(12)
	if err != nil {
		return 0, nil, fmt.Errorf("wire: frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	corr = binary.BigEndian.Uint64(hdr[4:12])
	_, _ = br.Discard(12) // cannot fail: Peek buffered them
	payload, err = readPayload(br, n)
	return corr, payload, err
}

// writeLinkFrame writes one frame — the header plus the encoder's staged
// bytes, or the header alone for a zero-length payload when enc is nil — as
// one vectored write of the two under a fresh writeTimeout. It is the only
// assembler of the link header. The caller has bounded enc.Len() by
// xmltree.MaxFrameBytes and serializes writers on conn.
func writeLinkFrame(conn net.Conn, corr uint64, enc *xmltree.FrameEncoder) error {
	var hdr [12]byte
	bufs := net.Buffers{hdr[:], nil}
	if enc != nil {
		binary.BigEndian.PutUint32(hdr[0:4], uint32(enc.Len()))
		bufs[1] = enc.Bytes()
	}
	binary.BigEndian.PutUint64(hdr[4:12], corr)
	_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := bufs.WriteTo(conn)
	return err
}

// ReadFrame reads one document framed by a bare 4-byte big-endian length and
// returns it together with the retained frame buffer the document's nodes
// alias. Truncated prefixes, zero-length and oversized frames, and payloads
// cut off mid-frame are all errors — never a hang on a stream that will not
// grow, and never a parse of bytes beyond the declared length. Nothing on
// the link path calls it; the benchmark times it as the decode-one-frame
// stage.
//
// Ownership: the returned frame is retained by the document — names, text
// and attribute values of the decoded nodes are zero-copy slices into it.
// The frame must never be modified or reused while any node from the
// document is reachable (the xmltree born-frozen rule); it is returned so
// callers can account its exact wire size or archive the raw bytes. Documents
// delivered to a Handler and frames returned by LinkPool.Call follow the same
// rule.
func ReadFrame(r io.Reader) (*xmltree.Node, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("wire: frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, nil, errEmptyFrame
	}
	payload, err := readPayload(r, n)
	if err != nil {
		return nil, nil, err
	}
	doc, err := xmltree.Decode(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: frame body: %w", err)
	}
	return doc, payload, nil
}

var errEmptyFrame = errors.New("wire: empty frame")

// Handler processes one received document. A non-nil reply is written back
// on the same link when the frame asked for one (nonzero correlation id).
type Handler func(doc *xmltree.Node) (reply *xmltree.Node, err error)

// Server accepts links and dispatches each frame's document to a Handler.
type Server struct {
	ln   net.Listener
	errs chan error

	mu     sync.Mutex
	caps   byte
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// SetCaps sets the capability byte this server answers handshakes
// with (e.g. CapBlobRef when a payload store backs the handler). Call it
// before traffic; links already negotiated keep their original answer.
func (s *Server) SetCaps(caps byte) {
	s.mu.Lock()
	s.caps = caps
	s.mu.Unlock()
}

// Caps returns the advertised capability byte.
func (s *Server) Caps() byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.caps
}

// Listen starts a server on addr. Handler errors are reported on Errors().
func Listen(addr string, h Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, errs: make(chan error, 16)}
	go s.loop(h)
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Errors exposes handler, accept and link errors.
func (s *Server) Errors() <-chan error { return s.errs }

// Close stops accepting, closes every live connection (persistent links
// included), and waits for their handler goroutines to finish — after Close
// returns, no server goroutine touches the Handler, the connections, or
// package state like the timeout variables.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// track registers a live connection, refusing it when the server is already
// closed (Accept can race Close and hand over one last connection).
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.wg.Done()
}

func (s *Server) loop(h Handler) {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case s.errs <- err:
			default:
			}
			return
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		go func() {
			defer s.untrack(conn)
			s.serveLink(conn, h)
		}()
	}
}

// serveLink answers the handshake and then runs the link loop: many frames on
// one connection, each processed inline and answered on the same connection
// when it carries a nonzero correlation id. A handler failure poisons only
// its frame — a zero-length reply reports it to a caller, and the loop reads
// on — and so does a payload that does not decode (nested past
// xmltree.MaxDepth, say), reported as xmltree.ErrFrame. Anything that is not
// the handshake, and a death mid-frame, is reported and closes the connection;
// the client going away or idling past readTimeout at a frame boundary is the
// clean end of a link.
func (s *Server) serveLink(conn net.Conn, h Handler) {
	defer conn.Close()
	report := func(err error) {
		select {
		case s.errs <- err:
		default:
		}
	}
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(readTimeout))
	err := readHandshake(br)
	if err == nil {
		_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		_, err = conn.Write([]byte{s.Caps()})
	}
	if err != nil {
		report(fmt.Errorf("wire: link handshake from %s: %w", conn.RemoteAddr(), err))
		return
	}
	for {
		// Waiting for the next frame is bounded by readTimeout; reaching it
		// (or EOF) between frames is the normal end of an idle link.
		_ = conn.SetReadDeadline(time.Now().Add(readTimeout))
		if _, err := br.Peek(1); err != nil {
			return
		}
		// A frame has begun: give its header and payload a fresh budget so a
		// frame that arrives just before the idle deadline is not truncated.
		_ = conn.SetReadDeadline(time.Now().Add(readTimeout))
		corr, payload, err := readLinkFrame(br)
		if err == nil && len(payload) == 0 {
			err = errEmptyFrame
		}
		if err != nil {
			report(fmt.Errorf("wire: link from %s: %w", conn.RemoteAddr(), err))
			return
		}
		doc, err := xmltree.Decode(payload)
		var reply *xmltree.Node
		if err != nil {
			err = fmt.Errorf("wire: link from %s: %w: %w", conn.RemoteAddr(), xmltree.ErrFrame, err)
		} else {
			reply, err = h(doc)
		}
		if err != nil {
			report(err)
		}
		if corr == 0 {
			continue
		}
		if err := writeLinkReply(conn, corr, reply, err); err != nil {
			report(fmt.Errorf("wire: link reply to %s: %w", conn.RemoteAddr(), err))
			return
		}
	}
}

// writeLinkReply answers one correlated frame: the staged reply document, or
// a zero-length payload reporting a handler failure (or a handler that had
// nothing to say, or a reply too large to frame).
func writeLinkReply(conn net.Conn, corr uint64, reply *xmltree.Node, herr error) error {
	if herr != nil || reply == nil {
		return writeLinkFrame(conn, corr, nil)
	}
	enc := xmltree.GetFrameEncoder()
	defer enc.Release()
	enc.Node(reply)
	if enc.Framable() != nil {
		return writeLinkFrame(conn, corr, nil)
	}
	return writeLinkFrame(conn, corr, enc)
}
