// Streaming frame encoder.
//
// FrameEncoder assembles the canonical serialization of a document as a list
// of wire segments (net.Buffers) instead of one staged byte string. Frozen
// subtrees whose canonical bytes are already memoized (Freeze, or the
// decoder's clean-span memo) contribute their memoStr as a zero-copy segment;
// only live markup — mutable shells, attribute escaping, element framing —
// is materialized, into stable pooled scratch chunks, through the same append
// primitives String and Freeze use (appendAttrs, appendEscaped), so the two
// outputs cannot drift apart. The whole frame then
// reaches the socket as one vectored write, so forwarding a plan whose
// payloads crossed the wire before costs the kernel a gather over bytes the
// encoder never touched.
//
// Segment stability: scratch chunks are never reallocated once a segment
// aliases them (a full chunk is sealed and a fresh one started), and memoStr
// segments are immutable by the freeze contract, so the net.Buffers view
// stays valid until Reset or Release — and not a byte longer: Reset keeps
// the sealed chunks for the next frame, which writes over them. Every
// caller finishes with the segments (writes or copies them) before it
// releases the encoder.
package xmltree

import (
	"io"
	"net"
	"sync"
	"unsafe"
)

// frameChunkSize is the scratch chunk granularity. Live markup between two
// frozen payloads is typically small (operator shells, attribute lists), so
// one chunk usually holds all of it.
const frameChunkSize = 4096

// frameInlineMax is the largest memoized serialization that is copied into
// the current scratch chunk instead of becoming its own segment. Tiny
// segments would bloat the iovec list past what a gather write saves; the
// memcpy win only matters for payload-sized strings.
const frameInlineMax = 512

// FrameEncoder streams a canonical serialization into wire segments. The
// zero value is NOT ready; use NewFrameEncoder or GetFrameEncoder.
type FrameEncoder struct {
	segs   net.Buffers // completed segments, in wire order
	chunks [][]byte    // scratch chunks backing the live segments
	free   [][]byte    // empty frameChunkSize chunks kept by Reset, at most scratchMax bytes
	cur    []byte      // current scratch chunk (len = bytes used)
	mark   int         // start of the open live segment within cur
	n      int         // total bytes staged
	out    net.Buffers // reusable gather list for WriteTo (WriteTo consumes it)
}

// NewFrameEncoder returns an empty encoder.
func NewFrameEncoder() *FrameEncoder {
	return &FrameEncoder{cur: make([]byte, 0, frameChunkSize)}
}

// frameEncPool recycles encoders (and their scratch chunks) across sends.
var frameEncPool = sync.Pool{New: func() interface{} { return NewFrameEncoder() }}

// GetFrameEncoder returns a reset encoder from the pool; hand it back with
// Release once the frame has been written.
func GetFrameEncoder() *FrameEncoder {
	return frameEncPool.Get().(*FrameEncoder)
}

// Release resets the encoder and returns it to the pool. Any Segments view
// taken from it becomes invalid.
func (e *FrameEncoder) Release() {
	e.Reset()
	frameEncPool.Put(e)
}

// Reset discards all staged segments. The scratch chunks stay for the next
// frame: the current one, and the sealed frameChunkSize ones in the free
// list up to scratchMax bytes, so a large frame sent again allocates no
// chunks. Segment headers are cleared so a pooled encoder does not pin
// memoized strings (and the frames they alias) between sends.
func (e *FrameEncoder) Reset() {
	clear(e.segs)
	e.segs = e.segs[:0]
	for _, c := range e.chunks {
		if cap(c) == frameChunkSize && (len(e.free)+1)*frameChunkSize <= scratchMax {
			e.free = append(e.free, c[:0])
		}
	}
	clear(e.chunks)
	e.chunks = e.chunks[:0]
	// Keep the current chunk for the next frame unless a pathological
	// document grew it past the retention cap.
	if cap(e.cur) > scratchMax {
		e.cur = make([]byte, 0, frameChunkSize)
	} else {
		e.cur = e.cur[:0]
	}
	e.mark = 0
	e.n = 0
	clear(e.out)
	e.out = e.out[:0]
}

// seal closes the open live segment, if any, pushing it onto the segment
// list. The bytes stay in place; only the boundary moves.
func (e *FrameEncoder) seal() {
	if len(e.cur) > e.mark {
		e.segs = append(e.segs, e.cur[e.mark:len(e.cur):len(e.cur)])
		e.mark = len(e.cur)
	}
}

// grow makes room for min more live bytes, sealing the current chunk and
// starting another when it is full: a kept one from the free list, or a
// fresh one. Started chunks are never reallocated, so previously sealed
// segments remain valid.
func (e *FrameEncoder) grow(min int) {
	if cap(e.cur)-len(e.cur) >= min {
		return
	}
	e.seal()
	e.chunks = append(e.chunks, e.cur)
	e.mark = 0
	if n := len(e.free); n > 0 && min <= frameChunkSize {
		e.cur = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return
	}
	e.cur = make([]byte, 0, max(min, frameChunkSize))
}

// Raw appends verbatim canonical bytes (markup the caller constructs).
func (e *FrameEncoder) Raw(s string) {
	e.grow(len(s))
	e.cur = append(e.cur, s...)
	e.n += len(s)
}

// RawByte appends one verbatim byte.
func (e *FrameEncoder) RawByte(b byte) {
	e.grow(1)
	e.cur = append(e.cur, b)
	e.n++
}

// Attr appends one canonical attribute: space, name, ="escaped value".
func (e *FrameEncoder) Attr(name, value string) {
	e.attrs([]Attr{{Name: name, Value: value}})
}

// attrs appends attributes in canonical order through appendAttrs.
func (e *FrameEncoder) attrs(a []Attr) {
	size := attrsSize(a)
	e.grow(size)
	e.cur = appendAttrs(e.cur, a)
	e.n += size
}

// escaped appends s through appendEscaped, or as a plain copy when
// escapeExtra (which grow needs anyway) found nothing to escape.
func (e *FrameEncoder) escaped(s string, quot bool) {
	extra := escapeExtra(s, quot)
	e.grow(len(s) + extra)
	if extra == 0 {
		e.cur = append(e.cur, s...)
	} else {
		e.cur = appendEscaped(e.cur, s, quot)
	}
	e.n += len(s) + extra
}

// Node appends the canonical serialization of a subtree: appendTo's output,
// except that a memoized serialization larger than frameInlineMax becomes a
// zero-copy segment instead of a copy.
func (e *FrameEncoder) Node(n *Node) {
	switch {
	case len(n.memoStr) > frameInlineMax:
		e.seal()
		e.segs = append(e.segs, strBytes(n.memoStr))
		e.n += len(n.memoStr)
		return
	case n.memoStr != "":
		e.Raw(n.memoStr)
		return
	case n.IsText():
		e.escaped(n.Text, false)
		return
	}
	e.RawByte('<')
	e.Raw(n.Name)
	e.attrs(n.Attrs)
	if n.Text == "" && len(n.Children) == 0 {
		e.Raw("/>")
		return
	}
	e.RawByte('>')
	e.escaped(n.Text, false)
	for _, c := range n.Children {
		e.Node(c)
	}
	e.Raw("</")
	e.Raw(n.Name)
	e.RawByte('>')
}

// Stage writes n into e: n.Stage is the stage function of a frame that is
// this one document.
func (n *Node) Stage(e *FrameEncoder) { e.Node(n) }

// strBytes views a string as a read-only byte slice without copying. The
// gather write only reads from it; the freeze contract keeps it immutable.
func strBytes(s string) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// Len returns the total staged byte count.
func (e *FrameEncoder) Len() int { return e.n }

// Segments returns the staged frame as a gather list. The view aliases the
// encoder's scratch and memoized strings: it is valid until the next Reset
// or Release, must not be written through, and must not be passed to
// net.Buffers.WriteTo directly (WriteTo consumes its receiver — copy first,
// as WriteTo here does).
func (e *FrameEncoder) Segments() net.Buffers {
	e.seal()
	return e.segs
}

// WriteTo writes the staged frame to w. When w supports gather writes (a
// *net.TCPConn), the whole frame — header-less — leaves in one writev.
func (e *FrameEncoder) WriteTo(w io.Writer) (int64, error) {
	e.seal()
	e.out = append(e.out[:0], e.segs...)
	return e.out.WriteTo(w)
}

// AppendString appends the staged bytes to dst; a test and fixture helper
// that leaves the encoder intact.
func (e *FrameEncoder) AppendString(dst []byte) []byte {
	e.seal()
	for _, seg := range e.segs {
		dst = append(dst, seg...)
	}
	return dst
}

// String returns the staged bytes as one string, copied once.
func (e *FrameEncoder) String() string {
	b := e.AppendString(make([]byte, 0, e.n))
	return unsafe.String(unsafe.SliceData(b), len(b)) // b is nobody else's
}
