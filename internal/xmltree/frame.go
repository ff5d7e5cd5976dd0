// Frame encoder.
//
// FrameEncoder stages the canonical serialization of one frame into a single
// byte buffer, through the package's one serializer: Node is appendTo and
// Attr is appendAttr, so a staged frame, String and Freeze cannot drift
// apart. A frozen subtree's memoized serialization is copied in like any
// other markup. The encoder therefore owns everything it stages: the caller
// may mutate what it staged as soon as staging returns, and a pooled encoder
// pins no memo, and no frame a memo slices, between sends.
package xmltree

import (
	"errors"
	"fmt"
	"sync"
)

// MaxFrameBytes bounds a framed document on every transport: a peer cannot
// commit the receiver to an arbitrarily large allocation by lying in a
// length prefix, and a simulated link carries no frame a socket would refuse.
const MaxFrameBytes = 8 << 20

// ErrFrame reports a document that cannot be framed, empty or beyond
// MaxFrameBytes: the sender's fault, found before anything touched a link.
// The wire server reports a received payload that does not decode as ErrFrame
// too, and serves the link's next frame.
var ErrFrame = errors.New("xmltree: unframable document")

// FrameEncoder stages one frame's bytes. Use NewFrameEncoder or
// GetFrameEncoder.
type FrameEncoder struct {
	buf []byte
}

// NewFrameEncoder returns an empty encoder whose buffer fits a typical plan
// frame.
func NewFrameEncoder() *FrameEncoder {
	return &FrameEncoder{buf: make([]byte, 0, 4096)}
}

// frameEncPool recycles encoders (and their buffers) across sends.
var frameEncPool = sync.Pool{New: func() interface{} { return NewFrameEncoder() }}

// GetFrameEncoder returns a reset encoder from the pool; hand it back with
// Release once the frame has been written.
func GetFrameEncoder() *FrameEncoder {
	return frameEncPool.Get().(*FrameEncoder)
}

// Release resets the encoder and returns it to the pool. Any Bytes view
// taken from it becomes invalid.
func (e *FrameEncoder) Release() {
	e.Reset()
	frameEncPool.Put(e)
}

// frameKeepMax caps the buffer a reset encoder keeps for its next frame. It
// sits well above the largest frame a workload stages (a Fig. 3 join result
// of some 60 KB): an encoder that dropped its buffer would grow a new one,
// doubling from nothing, for every such frame.
const frameKeepMax = 1 << 18

// Reset discards the staged frame. The buffer stays for the next frame
// unless a pathological document grew it past frameKeepMax.
func (e *FrameEncoder) Reset() {
	if cap(e.buf) > frameKeepMax {
		e.buf = nil
	} else {
		e.buf = e.buf[:0]
	}
}

// Framable refuses, with ErrFrame, a staged frame no transport carries: an
// empty one or one past MaxFrameBytes.
func (e *FrameEncoder) Framable() error {
	if n := len(e.buf); n == 0 || n > MaxFrameBytes {
		return fmt.Errorf("%w: %d bytes, frame limit %d", ErrFrame, n, MaxFrameBytes)
	}
	return nil
}

// Raw appends verbatim canonical bytes (markup the caller constructs).
func (e *FrameEncoder) Raw(s string) { e.buf = append(e.buf, s...) }

// RawByte appends one verbatim byte.
func (e *FrameEncoder) RawByte(b byte) { e.buf = append(e.buf, b) }

// Attr appends one canonical attribute: space, name, ="escaped value".
func (e *FrameEncoder) Attr(name, value string) {
	e.buf = appendAttr(e.buf, Attr{Name: name, Value: value})
}

// Node appends the canonical serialization of a subtree.
func (e *FrameEncoder) Node(n *Node) { e.buf = n.appendTo(e.buf) }

// Stage writes n into e: n.Stage is the stage function of a frame that is
// this one document.
func (n *Node) Stage(e *FrameEncoder) { e.Node(n) }

// Len returns the staged byte count.
func (e *FrameEncoder) Len() int { return len(e.buf) }

// Bytes returns the staged frame. It is valid until the next Reset or
// Release, and must not be written through.
func (e *FrameEncoder) Bytes() []byte { return e.buf }

// AppendString appends the staged bytes to dst; a test and fixture helper
// that leaves the encoder intact.
func (e *FrameEncoder) AppendString(dst []byte) []byte { return append(dst, e.buf...) }

// String returns the staged bytes as one string, copied once.
func (e *FrameEncoder) String() string { return string(e.buf) }
