package wire

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/xmltree"
)

// TestServerHandlesSilentConnection: a connection that opens with anything
// but the handshake — the framings this package once accepted, junk, a
// handshake cut short, or nothing at all — and then stalls is one reported
// error naming the remote. The handler never sees a document, no goroutine
// stays pinned past readTimeout, and the server answers the next dialer.
func TestServerHandlesSilentConnection(t *testing.T) {
	old := readTimeout
	readTimeout = 100 * time.Millisecond
	defer func() { readTimeout = old }()

	served := make(chan string, 16)
	srv, err := Listen("127.0.0.1:0", func(doc *xmltree.Node) (*xmltree.Node, error) {
		served <- doc.Name
		return doc, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	openers := []struct {
		name  string
		bytes []byte
	}{
		{"raw document", []byte(`<hello who="world"/>`)},
		{"short raw document", []byte(`<a/>`)},
		{"length prefix", frame(`<a/>`)},
		{"MUX1", append([]byte("MUX1"), linkFrame(0, `<a/>`)...)},
		{"junk", []byte("\xde\xad\xbe\xef")},
		{"truncated reserved byte", []byte(linkMagic)},
		{"silence", nil},
	}
	for _, o := range openers {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(o.bytes); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-srv.Errors():
			if !strings.Contains(err.Error(), "handshake from "+conn.LocalAddr().String()) {
				t.Errorf("%s: error does not name the remote %s: %v", o.name, conn.LocalAddr(), err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: server never gave up on the connection", o.name)
		}
		conn.Close()
	}

	// The server still accepts and handles real traffic.
	pool := NewLinkPool()
	defer pool.Close()
	ping := xmltree.Elem("ping")
	reply, _, err := pool.Call(srv.Addr(), func(e *xmltree.FrameEncoder) { e.Node(ping) })
	if err != nil {
		t.Fatal(err)
	}
	if reply.Name != "ping" || <-served != "ping" {
		t.Fatalf("reply after the rejected connections = %s", reply)
	}
	// One error each and nothing served: the ping was the only document.
	if n := len(srv.Errors()); n != 0 {
		t.Fatalf("%d errors beyond one per rejected connection: %v", n, <-srv.Errors())
	}
	if n := len(served); n != 0 {
		t.Fatalf("a rejected connection reached the handler: <%s>", <-served)
	}
}
