package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/xmltree"
)

// frame prefixes a payload with the bare 4-byte length ReadFrame expects.
func frame(payload string) []byte {
	b := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(b, uint32(len(payload)))
	copy(b[4:], payload)
	return b
}

// linkFrame is one link frame as it crosses the wire: length, correlation
// id, payload.
func linkFrame(corr uint64, payload string) []byte {
	b := make([]byte, 12+len(payload))
	binary.BigEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(b[4:12], corr)
	copy(b[12:], payload)
	return b
}

// opened prefixes frame bytes with a dialer's handshake, whose reserved byte
// the server discards whatever it holds.
func opened(reserved byte, frames []byte) []byte {
	return append(append([]byte(linkMagic), reserved), frames...)
}

// bufConn is the write half of a connection, captured: what writeLinkFrame
// needs of a net.Conn (Write and SetWriteDeadline), backed by a buffer.
type bufConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *bufConn) Write(p []byte) (int, error)      { return c.buf.Write(p) }
func (c *bufConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzRecv drives the bytes a dialer controls through the server's receive
// sequence — readHandshake, readLinkFrame, decode — the path every shipped
// frame crosses. The committed corpus in testdata/fuzz/FuzzRecv pins the
// edge cases: bad magic and short handshakes, truncated headers, zero and
// oversized lengths, payloads cut off mid-frame, bytes beyond the frame,
// with zero and nonzero correlation ids.
//
// Properties: malformed input errors, never panics and never blocks; an
// accepted document is frozen at birth, and it and its correlation id
// survive a writeLinkFrame/readLinkFrame round trip unchanged.
func FuzzRecv(f *testing.F) {
	f.Add(opened(0, linkFrame(0, `<mqp id="q" target="t:1"><plan><data/></plan></mqp>`)))
	f.Add(opened(CapBlobRef, linkFrame(7, `<mqp id="q" target="t:1"><plan><urn name="urn:X:Y"/></plan>`+
		`<visited budget="3"><v fp="deadbeef42" n="2" s="meta:9020"/></visited></mqp>`)))
	f.Add(opened(0, linkFrame(0, `<mqp id="q" target="t:1"><plan><urn name="urn:X:Y"/></plan>`+
		`<visited b="4">meta:9020 FnYrjV5vcIE<a s="s1:9020" u="urn:InterestArea:(USA.OR.Portland,Music.CDs)"/></visited></mqp>`)))
	f.Add(opened(0, linkFrame(1<<63, `<mqp id="q" target="t:1"><plan><data/></plan>`+
		`<visited><a s="s:1" u=""/></visited></mqp>`))) // an unknown <visited> child: plain XML to the wire
	f.Add(opened(0, []byte{0, 0}))                                                      // truncated header
	f.Add(opened(0, linkFrame(0, `<a/>`)[:12]))                                         // header only, no payload
	f.Add(opened(0, linkFrame(0, ``)))                                                  // zero-length frame
	f.Add(opened(0, linkFrame(9, ``)))                                                  // zero-length frame asking for a reply
	f.Add(opened(0, append([]byte{0xff, 0xff, 0xff, 0xff}, linkFrame(1, `<a`)[4:]...))) // oversized length
	f.Add(opened(0, linkFrame(3, `<a><b>x</b></a>`)[:18]))                              // EOF mid-frame
	f.Add([]byte("MUX1\x00"))                                                           // bad magic
	f.Add([]byte(linkMagic))                                                            // short handshake: no reserved byte
	f.Add([]byte(" \r\n"))                                                              // shorter than the magic
	f.Add(opened(0, append(linkFrame(2, `<a/>`), `<trailing/>`...)))                    // bytes beyond the frame
	f.Add(opened(0, linkFrame(0, `not xml at all`)))                                    // well-framed junk
	f.Add(opened(CapBlobRef, linkFrame(5, `<open><unclosed></open>`)))                  // well-framed bad XML

	f.Fuzz(func(t *testing.T, data []byte) {
		// Malformed input must only error, never panic or hang.
		r := bufio.NewReader(bytes.NewReader(data))
		if err := readHandshake(r); err != nil {
			return
		}
		corr, payload, err := readLinkFrame(r)
		if err != nil {
			return
		}
		doc, err := xmltree.Decode(payload)
		if err != nil {
			return
		}
		if !doc.Frozen() {
			t.Fatal("received document not frozen at birth")
		}
		if doc.ByteSize() > xmltree.MaxFrameBytes {
			// Escaping can make the canonical form larger than the accepted
			// raw bytes; such a document legitimately cannot be re-framed.
			return
		}
		enc := xmltree.GetFrameEncoder()
		defer enc.Release()
		enc.Node(doc)
		var conn bufConn
		if err := writeLinkFrame(&conn, corr, enc); err != nil {
			t.Fatalf("re-framing an accepted document failed: %v", err)
		}
		corr2, payload2, err := readLinkFrame(bufio.NewReader(&conn.buf))
		if err != nil {
			t.Fatalf("re-reading a written frame failed: %v", err)
		}
		doc2, err := xmltree.Decode(payload2)
		if err != nil {
			t.Fatalf("re-decoding a written frame failed: %v", err)
		}
		if corr2 != corr || !xmltree.Equal(doc, doc2) {
			t.Fatalf("framing round trip changed the frame: corr %d vs %d,\n%s\nvs\n%s", corr, corr2, doc, doc2)
		}
	})
}

// TestFrameRoundTrip pins ReadFrame on a well-formed frame without fuzzing.
func TestFrameRoundTrip(t *testing.T) {
	want := xmltree.MustParse(`<mqp id="x"><plan><urn name="urn:a"/></plan></mqp>`)
	got, frame, err := ReadFrame(bytes.NewReader(frame(want.String())))
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(got, want) {
		t.Fatalf("round trip: %s", got)
	}
	if len(frame) != got.ByteSize() {
		t.Fatalf("retained frame is %d bytes, document sizes to %d", len(frame), got.ByteSize())
	}
}

// TestReadFrameBounds pins each framing violation to an error.
func TestReadFrameBounds(t *testing.T) {
	cases := map[string][]byte{
		"truncated prefix": {0, 0, 0},
		"zero length":      {0, 0, 0, 0},
		"oversized":        {0xff, 0xff, 0xff, 0xff},
		"mid-frame EOF":    frame(`<a><b/></a>`)[:8],
		"framed junk":      frame(`]]>`),
	}
	for name, data := range cases {
		if _, _, err := ReadFrame(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadFrame accepted %q", name, data)
		}
	}
}
