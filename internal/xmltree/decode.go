// Zero-copy receive-side decoder.
//
// Decode and DecodeString build an xmltree document directly from the wire
// buffer: element and attribute names, and text runs and attribute values
// that need no unescaping, alias the input instead of being copied. There is
// no intern table: a name is a substring of its frame like everything else a
// decoded tree holds, so a kept node keeps its frame either way. The
// produced subtree is **born frozen** — every node's canonical byte size is
// computed incrementally as its element closes, and the node is marked
// frozen — so decoder output obeys the package ownership rule with no
// post-parse Freeze walk.
//
// Ownership: because decoded nodes alias the input, the buffer handed to
// Decode (or the string handed to DecodeString) must stay immutable for the
// life of any node produced from it. Strings are immutable by construction;
// a []byte frame is retained by reference and must never be written again.
// In the other direction a retained node keeps its own frame alive — the
// tree's slabs and the input — and nothing of any other decode (see the slab
// sizing note below).
//
// Compatibility: Decode reads the XML the system writes — elements,
// attributes, character data, entity and character references, CDATA
// sections, comments and an <?xml?> declaration before the root element — and
// refuses the rest of XML with an error: a name holding a colon (a namespace
// prefix, xml:lang), an xmlns attribute, a <!DOCTYPE> or any other directive,
// and any other processing instruction. No serializer, frame encoder or
// collection file emits those. On everything else Decode is a behavioral
// mirror of the encoding/xml tokenizer loop it replaced (parseReference in
// reference_test.go, which refuses the same constructs; the product keeps only
// the name-class probes ElementNameOK and exoticNameOK): on any input the two
// either produce structurally equal trees or both reject, and
// FuzzDecodeEquivalence enforces it over the shared fuzz corpus. The mirrored
// quirks worth knowing: \r and \r\n in text and attribute values become \n
// while &#xD; survives; text runs merge across comments and CDATA boundaries;
// whitespace-only runs are dropped; "]]>" is an error outside CDATA;
// comments may not contain "--"; a repeated attribute keeps its first value;
// an <?xml?> declaration is validated for version and encoding.
//
// Sealed payload items: a plan carries the items its <data> leaves gathered
// from hop to hop, and most hops forward them unread. So every element child
// of a <data> but <annotations> is sealed: its bytes are scanned and
// validated exactly as an eager decode would (every error still fails the
// frame here, none is deferred), and sized for the clean-span check, but no
// node is built below it. What the tree holds is one frozen node with the
// item's name, attributes, leading text and clean span as its serialization
// memo; Node.Kids builds its children from that span the first time anything
// reads inside it, and keeps them. The serializers, FrameEncoder and content
// fingerprints read the memo, so forwarded freight is never built. An item
// whose span is not clean (an entity, a comment, non-canonical layout) has no
// memo to build from: the scan rewinds to its start and decodes it eagerly,
// sealing nothing inside it, so no byte is scanned more than twice. The
// items of a join's <data> inputs, which the join reads, decode eagerly too.
//
// How often a byte is read: once, on the frames the wire carries. A text run
// or attribute value opens with a table scan (byteClass) over plain bytes —
// valid XML chars that decoding leaves alone and canonical emission does not
// escape — OR-ing their classes, so "all whitespace?" falls out of the same
// loop. A run the scan carries to its terminator aliases the input and is
// never validated or sized again. Any other byte sends the rest of the run to
// scanText's general loop, the only code that knows entities, CR/LF, CDATA,
// control and non-ASCII characters; only that tail is validated and
// escape-sized. '>' is not plain because emission writes "&gt;"; ']' is not
// plain in character data so that the general loop can start where the scan
// stopped without remembering a half-seen "]]>". Names: rawName ORs the
// classes of a name's bytes as it scans, so a colon or a non-ASCII byte is
// known without a second pass, and only a non-ASCII name asks the tokenizer.
package xmltree

import (
	"encoding/xml"
	"errors"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// Decode parses one XML document from buf, aliasing buf's bytes for names,
// text, and attribute values wherever no unescaping is required. The caller
// must not modify buf afterwards: the returned subtree (frozen at birth)
// holds references into it for as long as any node is reachable.
func Decode(buf []byte) (*Node, error) {
	if len(buf) == 0 {
		return nil, errors.New("xmltree: decode: no root element")
	}
	return DecodeString(unsafe.String(unsafe.SliceData(buf), len(buf)))
}

// DecodeString parses one XML document from s with the same zero-copy,
// frozen-at-birth semantics as Decode; node strings are substrings of s.
//
// Byte-identical frames short-circuit through a bounded cache: when s is
// exactly the canonical serialization of a document decoded before, the
// previously built frozen tree is returned as-is (see framecache.go). The
// aliasing is safe precisely because decoder output is frozen — the tree is
// immutable no matter how many receive paths share it.
func DecodeString(s string) (*Node, error) {
	hit, key, cacheOn := frameCacheGet(s)
	if hit != nil {
		return hit, nil
	}
	root, whole, err := decode(s, true)
	if whole && cacheOn {
		frameCachePut(key, s, root)
	}
	return root, err
}

// decode runs a pooled decoder over the frame s, sealing its payload items
// when seal is set (see sealParent). whole reports that the root's clean span
// covers every byte of s (no declaration, no surrounding whitespace,
// canonical body), which is when the frame cache may keep the tree.
func decode(s string, seal bool) (root *Node, whole bool, err error) {
	d := decPool.Get().(*decoder)
	d.s, d.seal = s, seal
	d.sizeSlabs()
	root, err = d.run()
	whole = err == nil && root.memoStr != "" && d.rootSpan[0] == 0 && d.rootSpan[1] == len(s)
	d.release()
	return root, whole, err
}

// joinsData reports whether s holds a <join> whose first child is a <data>:
// a frame whose payload items decode eagerly (see eagerOp), which sizeSlabs
// must count. It looks for the name and then for the '<' before it: a search
// for "<join" would stop at every tag of a frame, one for a 'j' far less
// often.
func joinsData(s string) bool {
	for i := strings.Index(s, eagerOp); i >= 0; i = strings.Index(s, eagerOp) {
		if i > 0 && s[i-1] == '<' {
			if gt := strings.IndexByte(s[i:], '>'); gt >= 0 && strings.HasPrefix(s[i+gt+1:], "<"+sealParent) {
				return true
			}
		}
		s = s[i+len(eagerOp):]
	}
	return false
}

// decodeKids builds the children of a sealed node from its memo s, a clean
// span: it decodes the span as a document and keeps the root's children.
func decodeKids(s string) ([]*Node, error) {
	root, _, err := decode(s, false)
	if err != nil {
		return nil, err
	}
	return root.Children, nil
}

// --- Decoder state ------------------------------------------------------

// Slab sizing. A decode carves its nodes, child slices and attribute slices
// out of slabs it allocates for itself and hands over to the tree it builds:
// a decoded tree owns its slabs, and nothing of them goes back to the pool
// with the decoder. Retaining any node therefore retains exactly its own
// frame — tree plus input buffer — and never another frame's.
//
// The first slab of each kind is sized from the input: every element has a
// '<' that no "</" accounts for (text becomes a node only in mixed content,
// after a child element), and every attribute has its '=', so three byte
// counts cover a whole wire frame in one allocation per kind. slabMax clamps
// those counts, so that a hostile frame of nothing but '<' cannot make the
// decoder allocate a hundred bytes per input byte before it fails; a document
// that outgrows a slab gets the next one at twice the size.
const slabMax = 4096

// leafSlack is how many text leaves outside payload items a sealing decode
// sizes its first slabs for (see sizeSlabs).
const leafSlack = 4

// The seal rule: every element child of a sealParent element, except a
// sealSkip block, is decoded sealed (see decoder.sealDepth). These are the
// verbatim payload items of a plan's <data> leaves; annotations are the
// operator's own statistics.
//
// Except under a join: the next server to evaluate the join reads every item
// of its <data> inputs, and building a sealed item costs a decoder run of its
// own, more than sealing it saved. So the items of a <data> whose parent is
// an eagerOp element decode eagerly.
const (
	sealParent = "data"
	sealSkip   = "annotations"
	eagerOp    = "join"
)

// MaxDepth is the deepest element nesting the decoder accepts: a start tag
// that would open element MaxDepth+1 fails the decode. Every tree walk
// downstream (Freeze, the serializers, algebra's unmarshal, Fingerprint and
// Reduce) recurses once per level, so without the cap one frame far below
// the wire's size limit could hold megabytes of goroutine stack per walk.
// The deepest document the experiments, the chaos worlds, the examples and
// the benchmark workloads decode is 10 levels.
const MaxDepth = 1024

// scratchMax caps, in bytes, what each pooled buffer (scratch and the three
// parse stacks) may keep between decodes, so one pathological document does
// not pin large buffers in the pool.
const scratchMax = 1 << 16

type openElem struct {
	n       *Node  // nil inside a sealed item
	name    string // for end-tag matching, and the size of a sealed element
	kidMark int    // kidStk length when the element opened
	// size is the canonical bytes of the start tag, the element's text and
	// its completed children so far; text and kids say whether there are any
	// (the element then closes as </name>, not />).
	size       int
	text, kids bool

	// Clean-span tracking (see finishSpan): where the element's '<' sits in
	// the input, the transform counter at open, and whether the start tag or
	// a completed child already deviated from canonical form.
	start    int
	mutsMark int
	dirty    bool
}

type decoder struct {
	s    string
	pos  int
	root *Node

	open    []openElem
	kidStk  []*Node // flattened children of all open elements
	attrStk []Attr  // attributes of the element being parsed

	// This decode's current slabs, how much of each is handed out, and the
	// size of the next slab of each kind (see slabMax).
	nodeChunk []Node
	nodeUsed  int
	nodeNext  int
	kidChunk  []*Node
	kidUsed   int
	kidNext   int
	attrChunk []Attr
	attrUsed  int
	attrNext  int

	scratch []byte // unescape staging for values that cannot alias s
	// wsOnly reports whether the last scanText run was entirely whitespace
	// (strings.TrimSpace would empty it), and escExtra how many bytes
	// canonical emission adds to it by escaping; both fall out of the scan,
	// so neither addText nor the size arithmetic re-reads the run.
	wsOnly   bool
	escExtra int

	// muts counts byte-transforming events — entity expansion, \r rewriting,
	// CDATA sections, comments, an <?xml?> declaration, dropped
	// whitespace-only runs — since the decode started. An element whose
	// [open, close] window saw none of them is a candidate for clean-span
	// memoization (finishSpan).
	muts int
	// rootSpan is the input span [start, end) of the root element, for the
	// whole-frame decode cache.
	rootSpan [2]int

	// seal is whether this decode seals payload items (see sealParent), and
	// sealDepth the open-stack depth of the item being sealed, 0 when none
	// is: the item's descendants are scanned and validated as always, and
	// sized for its clean check, but no node, name or slice is made for
	// them. eagerDepth is the depth of an item that failed its clean check
	// and is being decoded again, eagerly, 0 when none is: nothing inside it
	// is sealed, so that no byte is scanned more than twice however deep
	// <data> elements nest in items.
	seal       bool
	sealDepth  int
	eagerDepth int
}

// decPool holds the decoders of frames and of sealed items' builds alike.
var decPool = sync.Pool{New: newDecoder}

func newDecoder() any { return &decoder{} }

func (d *decoder) release() {
	d.s = ""
	d.pos = 0
	d.root = nil
	d.nodeChunk, d.kidChunk, d.attrChunk = nil, nil, nil
	d.nodeUsed, d.kidUsed, d.attrUsed = 0, 0, 0
	d.open = resetStack(d.open)
	d.kidStk = resetStack(d.kidStk)
	d.attrStk = resetStack(d.attrStk)
	if cap(d.scratch) > scratchMax {
		d.scratch = nil // bytes only: nothing of the frame to clear
	}
	d.muts = 0
	d.rootSpan = [2]int{}
	d.seal, d.sealDepth, d.eagerDepth = false, 0, 0
	decPool.Put(d)
}

// resetStack empties a pooled stack for the next decode, or drops it when it
// grew past scratchMax. Its entries hold nodes and substrings of the frame
// just decoded, which would keep the frame alive from the pool, so it clears
// the live prefix (what a failed decode leaves) and the popped entries past
// it, up to the first zero entry. Nothing past that was written since the
// last release, which left it zero, so a decode pays for the depth it used,
// not for the capacity an earlier frame grew. Every entry pushed is nonzero
// (a name, a node).
func resetStack[T comparable](s []T) []T {
	var zero T
	if cap(s)*int(unsafe.Sizeof(zero)) > scratchMax {
		return nil
	}
	n := len(s)
	s = s[:cap(s)]
	for n < len(s) && s[n] != zero {
		n++
	}
	clear(s[:n])
	return s[:0]
}

// sizeSlabs sets the first slab sizes from the input (see slabMax). Child
// pointers number one less than nodes, so the two share an estimate: one
// node per element. A sealed payload item costs one node however many fields
// it holds, so when the decode seals, text leaves (the fields) are not
// counted, and leafSlack covers the few a plan frame holds outside its
// payloads (the packed <visited> section), unless a join's inputs will
// decode eagerly; a frame that seals nothing and holds more fills the slab
// and the doubled ones after it.
func (d *decoder) sizeSlabs() {
	sealing := d.seal && !joinsData(d.s)
	closes, leaves := countCloseTags(d.s, sealing)
	est := strings.Count(d.s, "<") - closes
	if sealing {
		est = min(est, est-leaves+leafSlack)
	}
	d.nodeNext = min(max(est, 1), slabMax)
	d.kidNext = d.nodeNext
	d.attrNext = min(max(strings.Count(d.s, "="), 1), slabMax)
}

// countCloseTags counts the end tags "</" in s, and among them, when
// countLeaves is set, the leaves: those not right after a '>', which close a
// run of character data. It reads eight bytes at a time: unlike the
// single-byte counts, a two-byte needle gets no SIMD path.
func countCloseTags(s string, countLeaves bool) (closes, leaves int) {
	const ones, low7 = 0x0101010101010101, 0x7f7f7f7f7f7f7f7f
	// zeros marks the zero bytes of y with their top bit: the sum leaves a
	// lane's top bit clear only there, and no carry crosses a lane (each
	// sums to at most 0xfe).
	zeros := func(y uint64) uint64 { return ^((y&low7 + low7) | y | low7) }
	var prev byte // the byte before s
	for ; len(s) > 8; s = s[8:] {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		// Byte j of y is zero exactly when s[j] is '<' and s[j+1] is '/', and
		// byte j of z when the byte before s[j] is '>'.
		y := (w ^ ones*'<') | ((w>>8 | uint64(s[8])<<56) ^ ones*'/')
		ends := zeros(y)
		closes += bits.OnesCount64(ends)
		if countLeaves {
			z := (w<<8 | uint64(prev)) ^ ones*'>'
			leaves += bits.OnesCount64(ends &^ zeros(z))
		}
		prev = s[7]
	}
	for i := 0; i+1 < len(s); i++ {
		if s[i] == '<' && s[i+1] == '/' {
			closes++
			if countLeaves && prev != '>' {
				leaves++
			}
		}
		prev = s[i]
	}
	return closes, leaves
}

func (d *decoder) newNode() *Node {
	if d.nodeUsed == len(d.nodeChunk) {
		d.nodeChunk = make([]Node, d.nodeNext)
		d.nodeUsed = 0
		d.nodeNext *= 2
	}
	n := &d.nodeChunk[d.nodeUsed]
	d.nodeUsed++
	return n
}

func (d *decoder) kidSlice(kids []*Node) []*Node {
	n := len(kids)
	if n == 0 {
		return nil
	}
	if len(d.kidChunk)-d.kidUsed < n {
		d.kidChunk = make([]*Node, max(n, d.kidNext))
		d.kidUsed = 0
		d.kidNext *= 2
	}
	out := d.kidChunk[d.kidUsed : d.kidUsed+n : d.kidUsed+n]
	d.kidUsed += n
	copy(out, kids)
	return out
}

func (d *decoder) attrSlice(attrs []Attr) []Attr {
	n := len(attrs)
	if n == 0 {
		return nil
	}
	if len(d.attrChunk)-d.attrUsed < n {
		d.attrChunk = make([]Attr, max(n, d.attrNext))
		d.attrUsed = 0
		d.attrNext *= 2
	}
	out := d.attrChunk[d.attrUsed : d.attrUsed+n : d.attrUsed+n]
	d.attrUsed += n
	copy(out, attrs)
	return out
}

// --- Errors -------------------------------------------------------------

func (d *decoder) err(msg string) error {
	return errors.New("xmltree: decode: " + msg)
}

func (d *decoder) eof() error {
	return d.err("unexpected EOF")
}

// --- Main loop ----------------------------------------------------------

func (d *decoder) run() (*Node, error) {
	for d.pos < len(d.s) {
		if d.s[d.pos] != '<' {
			text, err := d.scanText(-1, false)
			if err != nil {
				return nil, err
			}
			d.addText(text)
			continue
		}
		d.pos++
		if d.pos == len(d.s) {
			return nil, d.eof()
		}
		var err error
		switch d.s[d.pos] {
		case '/':
			d.pos++
			err = d.endElement()
		case '?':
			d.pos++
			err = d.procInst()
		case '!':
			d.pos++
			err = d.bang()
		default:
			err = d.startElement()
		}
		if err != nil {
			return nil, err
		}
	}
	if len(d.open) > 0 {
		return nil, d.err("unterminated element <" + d.open[len(d.open)-1].name + ">")
	}
	if d.root == nil {
		return nil, d.err("no root element")
	}
	return d.root, nil
}

// space skips XML whitespace inside markup.
func (d *decoder) space() {
	for d.pos < len(d.s) {
		switch d.s[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// --- Names --------------------------------------------------------------

// Byte classes: one lookup tells a scan all it needs about a byte, and the
// OR of the classes met along a run answers what used to take a pass each.
const (
	// Plain in character data, in a "-quoted and in a '-quoted value: a valid
	// XML char, not the run's terminator, that decoding does not rewrite ('&',
	// '\r') and canonical emission does not escape ('>'; in values '"', tab
	// and newline). See the package header for ']'.
	clsText = 1 << iota
	clsDq
	clsSq
	clsInk // not whitespace
	// encoding/xml's name alphabet: any ASCII byte outside it delimits a
	// name, while multi-byte characters (clsHigh) continue one and are
	// validated rune-wise afterwards.
	clsName
	clsColon
	clsHigh
)

var byteClass = func() (t [256]uint8) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = clsText | clsDq | clsSq | clsInk
	}
	t[' '] &^= clsInk
	t['\t'], t['\n'] = clsText, clsText
	t['<'], t['&'], t['>'] = 0, 0, 0
	t[']'] &^= clsText
	t['"'] &^= clsDq | clsSq
	t['\''] &^= clsSq // '"' too: emission re-quotes with '"'
	for _, c := range "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-:" {
		t[c] |= clsName
	}
	t[':'] |= clsColon
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = clsName | clsHigh
	}
	return t
}()

// rawName reads one name at d.pos and holds it to nameOK, reading what
// encoding/xml's readName reads: a name running into EOF is an unexpected-EOF
// error, since the tokenizer reads the byte after a name before returning it.
func (d *decoder) rawName() (string, error) {
	s := d.s
	start := d.pos
	i := start
	var seen uint8
	for i < len(s) && byteClass[s[i]]&clsName != 0 {
		seen |= byteClass[s[i]]
		i++
	}
	if i >= len(s) {
		return "", d.eof()
	}
	if i == start {
		return "", d.err("expected name")
	}
	name := s[start:i]
	if !nameOK(name, seen) {
		if seen&clsColon != 0 {
			return "", d.err("namespace prefix in name " + name)
		}
		return "", d.err("invalid XML name: " + name)
	}
	d.pos = i
	return name, nil
}

// nameOK is the one name rule, for element and attribute names and PI
// targets alike: an XML name (encoding/xml's isName) with no colon. seen is
// the OR of the byteClass entries of name's bytes, every one of them clsName.
// A name with a non-ASCII byte is settled by the tokenizer itself
// (exoticNameOK), so the exotic cases cannot drift.
func nameOK(name string, seen uint8) bool {
	switch {
	case seen&clsColon != 0:
		return false
	case seen&clsHigh != 0:
		return exoticNameOK(name)
	}
	// encoding/xml's name start class over ASCII, colon aside: letters and
	// underscore. Digits, '.' and '-' may only continue a name.
	c := name[0]
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_'
}

// exoticNameOK validates a colon-free name containing non-ASCII bytes by
// asking the reference tokenizer. The probe is a processing instruction, not
// an element, so that no namespace handling takes part in the verdict.
func exoticNameOK(name string) bool {
	dec := xml.NewDecoder(strings.NewReader("<?" + name + " ?>"))
	_, err := dec.Token()
	return err == nil
}

// ElementNameOK reports whether name decodes as itself when written as an
// element or attribute name: whether <name/> decodes to an element named
// name. It is the decoder's own rule (nameOK). algebra.Validate holds the
// names a plan has the engine write as elements (a join's component names, a
// projection's wrapper) to it on the way in.
func ElementNameOK(name string) bool {
	if name == "" {
		return false
	}
	var seen uint8
	for i := 0; i < len(name); i++ {
		c := byteClass[name[i]]
		if c&clsName == 0 {
			return false
		}
		seen |= c
	}
	return nameOK(name, seen)
}

// --- Elements -----------------------------------------------------------

func (d *decoder) startElement() error {
	start := d.pos - 1 // the '<' consumed by run
	if len(d.open) == MaxDepth {
		return d.err("element nested deeper than " + strconv.Itoa(MaxDepth) + " levels")
	}
	mutsMark := d.muts
	name, err := d.rawName()
	if err != nil {
		return err
	}
	if len(d.open) == 0 && d.root != nil {
		return d.err("multiple root elements")
	}
	k := len(d.open)
	seal := d.seal && d.sealDepth == 0 && d.eagerDepth == 0 && k > 0 && name != sealSkip &&
		d.open[k-1].n.Name == sealParent && (k == 1 || d.open[k-2].n.Name != eagerOp)

	// dirty accumulates every way the start tag can deviate from canonical
	// form without the byte-size check noticing: markup whitespace that is not
	// exactly one space per attribute, '=' padding, single-quoted values,
	// dropped or reordered attributes. Clean spans (finishSpan) must rule all
	// of these out.
	dirty := false

	var n *Node
	if d.sealDepth == 0 {
		n = d.newNode()
		n.Name = name
	}
	// size accumulates the canonical start tag as attributes are kept, and
	// valExtra what escaping adds to their values.
	size, valExtra := len("<")+len(name), 0
	attrMark := len(d.attrStk)
	empty := false
	for {
		ws := d.pos
		d.space()
		if d.pos >= len(d.s) {
			return d.eof()
		}
		c := d.s[d.pos]
		if c == '/' {
			if d.pos != ws {
				dirty = true // canonical form has no space before "/>"
			}
			d.pos++
			if d.pos >= len(d.s) {
				return d.eof()
			}
			if d.s[d.pos] != '>' {
				return d.err("expected /> in element")
			}
			d.pos++
			empty = true
			break
		}
		if c == '>' {
			if d.pos != ws {
				dirty = true // no space before '>'
			}
			d.pos++
			break
		}
		if d.pos != ws+1 || d.s[ws] != ' ' {
			dirty = true // exactly one plain space precedes each attribute
		}
		aname, err := d.rawName()
		if err != nil {
			return err
		}
		if aname == "xmlns" {
			return d.err("xmlns attribute in element " + name)
		}
		eq := d.pos
		d.space()
		if d.pos >= len(d.s) {
			return d.eof()
		}
		if d.s[d.pos] != '=' {
			return d.err("attribute name without = in element")
		}
		if d.pos != eq {
			dirty = true // whitespace around '='
		}
		d.pos++
		vq := d.pos
		d.space()
		if d.pos >= len(d.s) {
			return d.eof()
		}
		q := d.s[d.pos]
		if q != '"' && q != '\'' {
			return d.err("unquoted or missing attribute value in element")
		}
		if d.pos != vq || q != '"' {
			dirty = true // '=' padding or single-quoted value
		}
		d.pos++
		val, err := d.scanText(int(q), false)
		if err != nil {
			return err
		}
		if hasAttr(d.attrStk[attrMark:], aname) {
			dirty = true // a repeated attribute is dropped: the first wins
			continue
		}
		valExtra += d.escExtra
		size += len(` ="`) + len(aname) + len(val) + len(`"`)
		d.attrStk = append(d.attrStk, Attr{Name: aname, Value: val})
	}
	attrs := d.attrStk[attrMark:]
	if !attrsSorted(attrs) {
		dirty = true // canonical emission reorders
	}
	size += valExtra
	if n != nil {
		n.Attrs = d.attrSlice(attrs)
	}
	d.attrStk = d.attrStk[:attrMark]

	if empty {
		size, clean := d.spanSize(len(name), start, size, false, !dirty && d.muts == mutsMark)
		d.finishSpan(n, start, size, clean)
		return nil
	}
	// Fast path for the dominant wire shape, <name>text</name>: scan the
	// text run and, when the matching end tag follows immediately, complete
	// the element — one node, the text its own — without touching the
	// open-element stack. A mismatch (child element, comment, unbalanced
	// tag) falls back to the generic path with the text already banked.
	if d.pos < len(d.s) && d.s[d.pos] != '<' {
		text, err := d.scanText(-1, false)
		if err != nil {
			return err
		}
		if end, ok := d.matchEnd(d.pos+2, name); d.pos+1 < len(d.s) && d.s[d.pos] == '<' && d.s[d.pos+1] == '/' && ok {
			// Clean end tag: exactly "</name>" with no trailing whitespace.
			endClean := end == d.pos+2+len(name)+1
			d.pos = end
			if d.wsOnly {
				dirty = true // whitespace-only content dropped
			} else if size += len(text) + d.escExtra; n != nil {
				n.Text = text
			}
			size, clean := d.spanSize(len(name), start, size, !d.wsOnly, endClean && !dirty && d.muts == mutsMark)
			d.finishSpan(n, start, size, clean)
			return nil
		}
		d.open = append(d.open, openElem{n: n, name: name, kidMark: len(d.kidStk),
			size: size, start: start, mutsMark: mutsMark, dirty: dirty})
		if seal {
			d.sealDepth = len(d.open)
		}
		d.addText(text)
		return nil
	}
	d.open = append(d.open, openElem{n: n, name: name, kidMark: len(d.kidStk),
		size: size, start: start, mutsMark: mutsMark, dirty: dirty})
	if seal {
		d.sealDepth = len(d.open) // its descendants are scanned sealed
	}
	return nil
}

// hasAttr reports whether attrs holds an attribute named name.
func hasAttr(attrs []Attr, name string) bool {
	for _, a := range attrs {
		if a.Name == name {
			return true
		}
	}
	return false
}

// matchEnd reports whether the bytes at i (positioned just after "</") are
// exactly the name raw followed by the optional trailing space the
// tokenizer permits and the closing '>', returning the position just past
// that '>'.
func (d *decoder) matchEnd(i int, raw string) (int, bool) {
	s := d.s
	if i < 0 || i+len(raw) > len(s) || s[i:i+len(raw)] != raw {
		return 0, false
	}
	i += len(raw)
	for i < len(s) {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
			i++
		case '>':
			return i + 1, true
		default:
			return 0, false
		}
	}
	return 0, false
}

func (d *decoder) endElement() error {
	// Matching end tags are recognized by direct byte comparison against
	// the innermost open element — its name was validated when the tag
	// opened, so no re-scan is needed. Anything that does not match falls
	// to the slow path, which produces the precise accept/reject behavior.
	if k := len(d.open); k > 0 {
		if end, ok := d.matchEnd(d.pos, d.open[k-1].name); ok {
			endClean := end == d.pos+len(d.open[k-1].name)+1
			d.pos = end
			return d.closeTop(endClean)
		}
	}
	name, err := d.rawName()
	if err != nil {
		return err
	}
	ws := d.pos
	d.space()
	if d.pos >= len(d.s) {
		return d.eof()
	}
	if d.s[d.pos] != '>' {
		return d.err("invalid characters between </" + name + " and >")
	}
	endClean := d.pos == ws
	d.pos++
	if len(d.open) == 0 {
		return d.err("unbalanced end element " + name)
	}
	if oe := d.open[len(d.open)-1]; oe.name != name {
		return d.err("element <" + oe.name + "> closed by </" + name + ">")
	}
	return d.closeTop(endClean)
}

// closeTop completes the innermost open element. endClean reports that the
// end tag was exactly "</name>" — no trailing whitespace canonical emission
// would drop.
//
// Closing a sealed item seals it: the node keeps its memo and no children.
// An item whose span failed the clean check has no memo to build children
// from, so the scan rewinds to its start and decodes it again, eagerly
// (eagerDepth).
func (d *decoder) closeTop(endClean bool) error {
	oe := &d.open[len(d.open)-1] // valid until the next push
	sealRoot := d.sealDepth == len(d.open)
	if d.eagerDepth == len(d.open) {
		d.eagerDepth = 0
	}
	d.open = d.open[:len(d.open)-1]
	// An element with no content closed by an end tag (<a></a>) is never
	// canonical: its canonical form is <a/>.
	content := oe.text || oe.kids
	size, clean := d.spanSize(len(oe.name), oe.start, oe.size, content,
		content && endClean && !oe.dirty && d.muts == oe.mutsMark)
	if sealRoot {
		d.sealDepth = 0
		if !clean {
			d.pos, d.eagerDepth = oe.start, len(d.open)+1
			return nil
		}
		oe.n.sealed.Store(true)
	}
	if oe.n != nil {
		oe.n.Children = d.kidSlice(d.kidStk[oe.kidMark:])
		d.kidStk = d.kidStk[:oe.kidMark]
	}
	d.finishSpan(oe.n, oe.start, size, clean)
	return nil
}

// spanSize completes an element's canonical size — size holds its start
// tag, text and children, summed while they were scanned — with the closing
// form, which content decides, and settles the clean check: the element's
// input span [start, d.pos) is its canonical form.
//
// Soundness of the check: clean arrives meaning that no byte-transforming
// event fired inside the span (d.muts), the start and end tags have
// canonical layout (an element without content is self-closed: <a></a>,
// whose canonical form is <a/>, fails even when an escaping expansion makes
// the sizes agree), attributes were kept verbatim in sorted order, and every
// element child passed its own check (a child that failed poisons the
// parent's span even when sizes happen to agree). Under those conditions the
// only ways the span can still differ from the canonical serialization are
// escaping expansions — a raw '>' in text, a raw tab in an attribute value —
// which strictly increase the canonical length. A size equal to the span's
// length therefore forces the two byte strings to be identical.
func (d *decoder) spanSize(nameLen, start, size int, content, clean bool) (int, bool) {
	if content {
		size += len("></>") + nameLen
	} else {
		size += len("/>")
	}
	return size, clean && size == d.pos-start
}

// finishSpan freezes a completed node of the given canonical size, memoizes
// its input span as its serialization when the span is clean (so re-emitting
// a received subtree is a memcpy instead of a re-walk), and attaches it to
// its parent or makes it the root. Inside a sealed item n is nil: the parent
// takes the size and the verdict, and no node.
func (d *decoder) finishSpan(n *Node, start, size int, clean bool) {
	if n != nil {
		n.memoSize, n.frozen = size, true
		if clean {
			n.memoStr = d.s[start:d.pos]
		}
	}
	if len(d.open) == 0 {
		d.root = n
		d.rootSpan = [2]int{start, d.pos}
		return
	}
	p := &d.open[len(d.open)-1]
	p.size += size
	p.kids = true
	p.dirty = p.dirty || !clean
	if n != nil {
		d.kidStk = append(d.kidStk, n)
	}
}

// addText applies Parse's text policy to one decoded run: dropped outside
// the root and when whitespace-only, joined to the open element's own Text
// while it has no children yet, merged with an adjacent text sibling (runs
// split by CDATA sections or comments), appended otherwise. A text node is
// born frozen like every decoded node, yet keeps growing here, its size memo
// with it, until the parent closes. Whether the run is whitespace-only and
// what escaping adds to it were settled by scanText (d.wsOnly, d.escExtra),
// so no re-scan happens here. Inside a sealed item only the size is kept,
// and the item itself keeps only its leading text.
func (d *decoder) addText(text string) {
	if len(d.open) == 0 {
		// Outside the root element: dropped, and outside every span.
		return
	}
	if d.wsOnly {
		// Whitespace-only run dropped from the enclosing element — its span
		// no longer matches the canonical form.
		d.muts++
		return
	}
	top := &d.open[len(d.open)-1]
	size := len(text) + d.escExtra
	top.size += size
	top.text = true
	switch {
	case d.sealDepth != 0 && (top.kids || len(d.open) > d.sealDepth):
		return
	case !top.kids:
		top.n.Text += text // still aliases the input when Text was empty
		return
	}
	k := len(d.kidStk)
	n := d.kidStk[k-1]
	if !n.IsText() {
		n = d.newNode()
		n.frozen = true
		d.kidStk = append(d.kidStk, n)
	}
	n.Text += text
	n.memoSize += size
}

// --- Text ---------------------------------------------------------------

// scanText decodes one text region starting at d.pos, mirroring the
// reference tokenizer's text(quote, cdata): quote < 0 reads character data
// up to the next '<' (or EOF at top level); quote >= 0 reads a quoted
// attribute value through its closing quote; cdata reads through "]]>".
// The returned string aliases d.s whenever no entity expansion or line-end
// rewriting touched the run; d.wsOnly and d.escExtra describe it.
//
// The run opens with a table scan over its plain bytes (see the package
// header): the general loop starts where that stops — at the terminator, for
// most runs — and validation and escape sizing cover only what it read.
func (d *decoder) scanText(quote int, cdata bool) (string, error) {
	s := d.s
	i := d.pos
	start := i
	var seen uint8
	if !cdata {
		mask := uint8(clsText)
		switch quote {
		case '"':
			mask = clsDq
		case '\'':
			mask = clsSq
		}
		for i < len(s) && byteClass[s[i]]&mask != 0 {
			seen |= byteClass[s[i]]
			i++
		}
	}
	plain := i - start // no ']' or '\r' in it: b0 and b1 may start at zero
	buf := d.scratch[:0]
	copied := false
	var b0, b1 byte
	trunc := 0
	// flush copies the clean prefix before the first transformation; the
	// transform (entity expansion, \r rewriting) is also what disqualifies
	// the enclosing spans from clean-span memoization.
	flush := func(end int) {
		if !copied {
			buf = append(buf, s[start:end]...)
			copied = true
			d.muts++
		}
	}
	for {
		if i >= len(s) {
			if cdata {
				return "", d.err("unexpected EOF in CDATA section")
			}
			if quote >= 0 {
				return "", d.eof()
			}
			break
		}
		b := s[i]
		if quote < 0 && b0 == ']' && b1 == ']' && b == '>' {
			if cdata {
				i++
				trunc = 2
				break
			}
			return "", d.err("unescaped ]]> not in CDATA section")
		}
		if b == '<' && !cdata {
			if quote >= 0 {
				return "", d.err("unescaped < inside quoted string")
			}
			break
		}
		if quote >= 0 && b == byte(quote) {
			i++
			break
		}
		if b == '&' && !cdata {
			flush(i)
			exp, ni, err := d.entity(i + 1)
			if err != nil {
				return "", err
			}
			buf = append(buf, exp...)
			i = ni
			b0, b1 = 0, 0
			continue
		}
		// Unescaped \r and \r\n are rewritten to \n, exactly as the
		// reference tokenizer does before its character validation.
		if b == '\r' {
			flush(i)
			buf = append(buf, '\n')
		} else if b1 == '\r' && b == '\n' {
			flush(i)
		} else if copied {
			buf = append(buf, b)
		}
		b0, b1 = b1, b
		i++
	}
	d.pos = i
	var out string
	if copied {
		out = string(buf[:len(buf)-trunc])
		d.scratch = buf[:0]
	} else {
		end := i
		switch {
		case cdata:
			end -= trunc + 1 // drop "]]" and the consumed '>'
		case quote >= 0:
			end-- // drop the consumed closing quote
		}
		out = s[start:end]
	}
	d.wsOnly, d.escExtra = seen&clsInk == 0, 0
	if tail := out[plain:]; tail != "" {
		ws, err := validChars(tail)
		if err != nil {
			return "", err
		}
		d.wsOnly = d.wsOnly && ws
		d.escExtra = escapeExtra(tail, quote >= 0)
	}
	return out, nil
}

// validChars applies the XML 1.0 character-range and UTF-8 validity checks
// the reference tokenizer runs over every decoded text run, and reports on
// the same pass whether the run is whitespace-only (the strings.TrimSpace
// predicate Parse uses to drop insignificant runs).
func validChars(s string) (wsOnly bool, err error) {
	wsOnly = true
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c == 0x20 || c == 0x09 || c == 0x0A || c == 0x0D:
			case c > 0x20:
				wsOnly = false
			default:
				return false, errors.New("xmltree: decode: illegal character code")
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			return false, errors.New("xmltree: decode: invalid UTF-8")
		}
		if !inCharacterRange(r) {
			return false, errors.New("xmltree: decode: illegal character code")
		}
		if wsOnly && !unicode.IsSpace(r) {
			wsOnly = false
		}
		i += size
	}
	return wsOnly, nil
}

// inCharacterRange is the XML Char production over non-ASCII runes (ASCII
// is settled byte-wise in validChars).
func inCharacterRange(r rune) bool {
	return r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// entity decodes one character reference starting just after '&' and
// returns the expansion and the index after the ';'. Only the five
// predefined named entities exist; character references accept any rune up
// to unicode.MaxRune (surrogates collapse to U+FFFD exactly as Go's
// rune-to-string conversion does), with out-of-range characters caught by
// the caller's validation pass.
func (d *decoder) entity(i int) (string, int, error) {
	s := d.s
	if i >= len(s) {
		return "", 0, d.eof()
	}
	if s[i] == '#' {
		i++
		if i >= len(s) {
			return "", 0, d.eof()
		}
		base := 10
		if s[i] == 'x' {
			base = 16
			i++
			if i >= len(s) {
				return "", 0, d.eof()
			}
		}
		start := i
		for i < len(s) && digitOK(s[i], base) {
			i++
		}
		if i >= len(s) {
			return "", 0, d.eof()
		}
		if s[i] != ';' {
			return "", 0, d.err("invalid character entity (no semicolon)")
		}
		n, err := strconv.ParseUint(s[start:i], base, 64)
		if err != nil || n > unicode.MaxRune {
			return "", 0, d.err("invalid character entity")
		}
		return string(rune(n)), i + 1, nil
	}
	start := i
	for i < len(s) {
		if byteClass[s[i]]&clsName == 0 {
			break
		}
		i++
	}
	if i >= len(s) {
		return "", 0, d.eof()
	}
	if s[i] != ';' {
		return "", 0, d.err("invalid character entity (no semicolon)")
	}
	var exp string
	switch s[start:i] {
	case "lt":
		exp = "<"
	case "gt":
		exp = ">"
	case "amp":
		exp = "&"
	case "apos":
		exp = "'"
	case "quot":
		exp = `"`
	default:
		return "", 0, d.err("invalid character entity &" + s[start:i] + ";")
	}
	return exp, i + 1, nil
}

func digitOK(c byte, base int) bool {
	if '0' <= c && c <= '9' {
		return true
	}
	return base == 16 && ('a' <= c && c <= 'f' || 'A' <= c && c <= 'F')
}

// --- Comments, CDATA, the declaration ----------------------------------

// bang dispatches the constructs behind "<!": comments and CDATA sections.
// Comment content is consumed (with the reference tokenizer's exact
// accept/reject behavior) and discarded; CDATA content feeds the enclosing
// element as an ordinary text run. A directive (<!DOCTYPE ...>) is refused.
func (d *decoder) bang() error {
	if d.pos >= len(d.s) {
		return d.eof()
	}
	d.muts++ // comments and CDATA never serialize verbatim
	switch d.s[d.pos] {
	case '-':
		d.pos++
		if d.pos >= len(d.s) {
			return d.eof()
		}
		if d.s[d.pos] != '-' {
			return d.err("invalid sequence <!- not part of <!--")
		}
		d.pos++
		return d.comment()
	case '[':
		d.pos++
		const intro = "CDATA["
		for k := 0; k < len(intro); k++ {
			if d.pos >= len(d.s) {
				return d.eof()
			}
			if d.s[d.pos] != intro[k] {
				return d.err("invalid <![ sequence")
			}
			d.pos++
		}
		text, err := d.scanText(-1, true)
		if err != nil {
			return err
		}
		d.addText(text)
		return nil
	default:
		return d.err("directives (<!DOCTYPE ...>) are not allowed")
	}
}

// comment consumes a comment body and its "-->" terminator. Per the spec
// (and the reference tokenizer), "--" may not appear inside a comment, so
// "--->" is an error rather than a long terminator. Content is not
// character-validated — the tokenizer never inspects it.
func (d *decoder) comment() error {
	s := d.s
	i := d.pos
	var b0, b1 byte
	for {
		if i >= len(s) {
			return d.eof()
		}
		b := s[i]
		i++
		if b0 == '-' && b1 == '-' {
			if b != '>' {
				return d.err(`invalid sequence "--" not allowed in comments`)
			}
			d.pos = i
			return nil
		}
		b0, b1 = b1, b
	}
}

// procInst consumes the one processing instruction the decoder accepts: an
// <?xml?> declaration before the root element opens. Its version and encoding
// are validated as the reference tokenizer validates them (it would need a
// charset reader for any encoding other than UTF-8).
func (d *decoder) procInst() error {
	d.muts++ // dropped from the canonical form
	target, err := d.rawName()
	if err != nil {
		return err
	}
	if target != "xml" || d.root != nil || len(d.open) > 0 {
		return d.err("processing instruction <?" + target + " not allowed here")
	}
	d.space()
	s := d.s
	rel := strings.Index(s[d.pos:], "?>")
	if rel < 0 {
		return d.eof()
	}
	inst := s[d.pos : d.pos+rel]
	d.pos += rel + 2
	if ver := piParam("version", inst); ver != "" && ver != "1.0" {
		return d.err("unsupported XML version " + ver)
	}
	if enc := piParam("encoding", inst); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return d.err("unsupported document encoding " + enc)
	}
	return nil
}

// piParam extracts a pseudo-attribute from an <?xml?> declaration body with
// the reference tokenizer's (approximate) scan: the first param= whose next
// byte is a quote wins, and the value runs to the matching quote.
func piParam(param, s string) string {
	param += "="
	lenp := len(param)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || lenp+k >= len(sub) {
			return ""
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}
