// Package xmltree provides a lightweight XML document model used throughout
// the repository: item data bundles, serialized mutant query plans, and
// partial results are all xmltree documents.
//
// The model is deliberately small — elements, attributes and text — because
// that is all the paper's data bundles and plan encoding require. A document
// is a tree of *Node values. Parsing is the package's own decoder (decode.go:
// Decode for wire frames, ParseString for fixtures that will be edited), and
// serialization emits deterministic, canonicalized XML (attributes sorted by
// name) so that byte sizes are stable across runs; the experiment harness
// depends on that stability when it reports "bytes shipped".
//
// # Normal form: one node per field
//
// An element's first child is never a text node: the character data before
// its first child element is the element's own Text, so a record field
// <price>13</price> is one node with no child slice. Text nodes remain only
// for text that follows a child element (mixed content). Every producer —
// Decode, ParseString, Elem, ElemText, Add — emits this form, and Equal, the
// serializers and InnerText assume it; code that writes Children directly
// must keep it.
//
// # Ownership: freeze and copy-on-write
//
// Plans carry verbatim XML payloads through every peer hop, so the package
// has an explicit ownership model instead of defensive deep copies:
//
//   - Freeze marks a subtree permanently immutable and memoizes every
//     node's canonical byte size. A frozen subtree may be aliased into any
//     number of documents, serialized, sized, and read concurrently without
//     synchronization — it is never written again.
//   - Share is the copy-on-write alias: it returns the node itself when
//     frozen (aliasing is safe) and a deep mutable copy otherwise.
//   - CloneShallow copies one node header (attrs included) while aliasing
//     its children, so a frozen list can grow by one element per hop
//     without rebuilding — the provenance trail's append pattern.
//
// Only frozen nodes memoize. ByteSize and String on a mutable tree walk it
// (stopping at frozen subtrees, whose memos answer) and write nothing, so
// they are reads like any other. Mutating a frozen node through SetAttr/Add
// panics; writing its exported fields directly is undetected and breaks the
// contract.
//
// # Sealed nodes: children built on first read
//
// The decoder seals the payload items of a <data> element (decode.go): such
// a node is frozen with its name, attributes, leading text and serialization
// memo, and its children are built from the memo the first time something
// asks for them. Kids is that question, and every reader in this package asks
// it. SealedPair makes the same kind of node from its inputs' bytes, for a
// join tuple that is serialized far more often than read. Outside the
// package, read a decoded node's children through Kids (or Child,
// ChildrenNamed, Elements, paths); the Children field is safe to read
// directly only on a tree the reader built itself.
package xmltree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Attr is a single name="value" attribute on an element.
type Attr struct {
	Name  string
	Value string
}

// Node is an XML element or a text node. An element has a Name and may carry
// attributes, leading text and children; a text node has Name == "" and its
// content in Text. The zero value is an empty text node.
//
// Mutate nodes through the methods (SetAttr, Add, ...) when possible: they
// refuse frozen nodes and keep the tree in normal form. Code that writes the
// exported fields directly must never make a text node an element's first
// child.
type Node struct {
	Name string
	// Text is a text node's content, or the character data an element holds
	// before its first child element (all of it, for a leaf field).
	Text     string
	Attrs    []Attr
	Children []*Node

	// memoSize is the canonical serialization length, valid only on a frozen
	// node. memoStr is the serialization itself, written once by Freeze at
	// the freeze root (or by the decoder for a clean span, or by SealedPair)
	// while the subtree is still exclusively owned, and read-only forever
	// after — so serializing a frozen payload into an outgoing message is one
	// copy, not a re-walk. Clone and CloneShallow produce mutable copies
	// without either.
	memoSize int
	memoStr  string
	frozen   bool
	// sealed is set while a sealed node's children are still unbuilt (see
	// Kids). It is atomic, since frozen nodes are read concurrently.
	sealed atomic.Bool
}

// Kids returns the node's children, building them first when the node is
// sealed. It is how code outside the package reads the children of a node it
// did not build; the built list is kept, so a node is built at most once.
func (n *Node) Kids() []*Node {
	if n.sealed.Load() {
		n.unseal()
	}
	return n.Children
}

// unsealMu serializes builds, so that concurrent first reads of one sealed
// node build it once. A node's lock is picked by its address, so builds of
// different nodes seldom wait on each other.
var unsealMu [64]sync.Mutex

// unseal builds a sealed node's children by decoding its serialization memo
// (a clean span the frame's decode already validated, or a SealedPair's
// canonical bytes) and publishes them before clearing the seal.
func (n *Node) unseal() {
	mu := &unsealMu[uintptr(unsafe.Pointer(n))/unsafe.Sizeof(*n)%uintptr(len(unsealMu))]
	mu.Lock()
	defer mu.Unlock()
	if !n.sealed.Load() {
		return
	}
	kids, err := decodeKids(n.memoStr)
	if err != nil {
		panic("xmltree: sealed span does not decode: " + err.Error())
	}
	n.Children = kids
	n.sealed.Store(false)
}

// mustBeMutable is the mutators' ownership check: frozen nodes may be aliased
// anywhere, so mutating one is a bug.
func (n *Node) mustBeMutable() {
	if n.frozen {
		panic("xmltree: mutation of frozen node <" + n.Name + ">")
	}
}

// Elem constructs an element node with the given children. Leading text
// nodes become the element's Text (the normal form).
func Elem(name string, children ...*Node) *Node {
	n := &Node{Name: name}
	n.Children = n.takeLeadingText(children)
	return n
}

// takeLeadingText keeps the normal form on the way in: while n has no
// children yet, text nodes at the head of kids are folded into n.Text. It
// returns the kids that remain to be appended.
func (n *Node) takeLeadingText(kids []*Node) []*Node {
	for len(n.Children) == 0 && len(kids) > 0 && kids[0].IsText() {
		n.Text += kids[0].Text
		kids = kids[1:]
	}
	return kids
}

// ElemAttrs constructs an element that takes ownership of attrs. Marshaling
// hot paths use it to build the attribute list at its final size in one
// allocation instead of growing it through repeated SetAttr calls;
// serialization sorts attributes canonically, so attrs may be in any order.
func ElemAttrs(name string, attrs ...Attr) *Node {
	return &Node{Name: name, Attrs: attrs}
}

// TextNode constructs a text node: text that follows a child element. Handed
// to Elem or Add while the element has no children, it is folded into the
// element's Text instead of becoming a child.
func TextNode(text string) *Node {
	return &Node{Text: text}
}

// ElemText constructs a leaf element holding text, e.g. ElemText("price",
// "10") renders as <price>10</price>. It is one node: the text is the
// element's own Text.
func ElemText(name, text string) *Node {
	return &Node{Name: name, Text: text}
}

// IsText reports whether the node is a text node.
func (n *Node) IsText() bool { return n.Name == "" }

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrDefault returns the named attribute's value, or def when absent.
func (n *Node) AttrDefault(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// SetAttr sets (or replaces) an attribute and returns the node for chaining.
func (n *Node) SetAttr(name, value string) *Node {
	n.mustBeMutable()
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return n
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
	return n
}

// Add appends children and returns the node for chaining. Text nodes added
// while the element has no children extend its Text (the normal form).
func (n *Node) Add(children ...*Node) *Node {
	n.mustBeMutable()
	n.Children = append(n.Children, n.takeLeadingText(children)...)
	return n
}

// Child returns the first child element with the given name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Kids() {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildrenNamed returns all child elements with the given name.
func (n *Node) ChildrenNamed(name string) []*Node {
	var out []*Node
	for _, c := range n.Kids() {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// Elements returns all element (non-text) children.
func (n *Node) Elements() []*Node {
	var out []*Node
	for _, c := range n.Kids() {
		if !c.IsText() {
			out = append(out, c)
		}
	}
	return out
}

// InnerText returns the concatenation of all text beneath the node.
func (n *Node) InnerText() string {
	if len(n.Kids()) == 0 {
		// A text node, or <name>text</name>, the shape of nearly every
		// field: no copy.
		return n.Text
	}
	var b strings.Builder
	n.innerText(&b)
	return b.String()
}

func (n *Node) innerText(b *strings.Builder) {
	b.WriteString(n.Text)
	for _, c := range n.Kids() {
		c.innerText(b)
	}
}

// Clone returns a deep copy of the node. The copy is always mutable, even
// when the source (or part of it) is frozen; use Share to alias frozen
// subtrees instead of copying them.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	cp := &Node{Name: n.Name, Text: n.Text}
	if len(n.Attrs) > 0 {
		cp.Attrs = make([]Attr, len(n.Attrs))
		copy(cp.Attrs, n.Attrs)
	}
	if kids := n.Kids(); len(kids) > 0 {
		cp.Children = make([]*Node, len(kids))
		for i, c := range kids {
			cp.Children[i] = c.Clone()
		}
	}
	return cp
}

// Freeze marks the subtree permanently immutable and memoizes every node's
// canonical byte size, then returns n for chaining. A frozen subtree can be
// aliased into any number of documents and read, sized, or serialized from
// multiple goroutines; SetAttr/Add on any node of it panic. Freezing an
// already-frozen subtree is a cheap no-op, so receivers freeze whatever they
// keep without checking provenance.
//
// Freeze itself writes the size memos and the root's serialization memo, so
// the caller must still own the subtree exclusively when freezing; share it
// only afterwards.
func (n *Node) Freeze() *Node {
	if n == nil || n.frozen {
		return n
	}
	// Memoize the serialization at the freeze root: frozen payloads are
	// typically serialized many times (a plan's data docs re-cross the wire
	// on every hop), and the memo turns each of those walks into one copy.
	// Children that were frozen earlier contribute their own memos to this
	// walk, so freeze chains (visit into trail, item into reply) price each
	// byte once.
	b := n.appendTo(make([]byte, 0, n.byteSize(true)))
	n.memoStr = unsafe.String(unsafe.SliceData(b), len(b)) // b is nobody else's
	return n
}

// FreezeSizes is Freeze without the serialization memo: it marks the
// subtree frozen and memoizes sizes only, copying no bytes. It suits a node
// that is serialized about once, whose children already carry their own
// memos: a provenance element grown by one frozen <visit> per hop is
// replaced by the next hop's, so memoizing it would re-serialize every
// earlier visit on every hop. FrozenSerialization reports false for it.
func (n *Node) FreezeSizes() *Node {
	if n != nil && !n.frozen {
		n.byteSize(true)
	}
	return n
}

// Frozen reports whether the node (and therefore its whole subtree) is
// frozen.
func (n *Node) Frozen() bool { return n.frozen }

// FrozenSerialization returns the memoized canonical serialization of a
// frozen subtree and true, or ("", false) when the node is mutable or was
// frozen as an interior node of a larger freeze (only freeze roots and the
// decoder's clean spans carry the memo). Content-addressed callers
// (internal/blobstore) fingerprint the returned string without
// re-serializing; the string is immutable for the life of the node.
func (n *Node) FrozenSerialization() (string, bool) {
	if n != nil && n.memoStr != "" {
		return n.memoStr, true
	}
	return "", false
}

// Share returns the node itself when it is frozen — aliasing an immutable
// subtree is free and safe — and a deep mutable copy otherwise. It is the
// copy-on-write primitive marshaling paths use in place of Clone.
func (n *Node) Share() *Node {
	if n == nil || n.frozen {
		return n
	}
	return n.Clone()
}

// CloneShallow returns a mutable copy of the node header — name, text, and
// attributes — whose children alias n's children. It is the copy-on-write
// step for appending to a frozen element: copy the header, add the new
// child, freeze the result; the shared children are never touched.
func (n *Node) CloneShallow() *Node {
	if n == nil {
		return nil
	}
	cp := &Node{Name: n.Name, Text: n.Text}
	if len(n.Attrs) > 0 {
		cp.Attrs = append([]Attr(nil), n.Attrs...)
	}
	if kids := n.Kids(); len(kids) > 0 {
		cp.Children = append([]*Node(nil), kids...)
	}
	return cp
}

// SealedPair returns <name><leftName>…</leftName><rightName>…</rightName></name>
// as one frozen, sealed node written straight into its serialization: each
// component element holds its item's content (leading text and children,
// not the item's name or attributes), and Kids builds the two components on
// first read. It equals the tree that wraps each item's content in a new
// element, but builds no node under the pair and aliases no input node: the
// pair holds only its own bytes. The names must be element names, so the
// bytes decode.
func SealedPair(name, leftName string, left *Node, rightName string, right *Node) *Node {
	size := 2*len(name) + len("<></>") + componentSize(leftName, left) + componentSize(rightName, right)
	b := append(append(append(make([]byte, 0, size), '<'), name...), '>')
	b = appendComponent(appendComponent(b, leftName, left), rightName, right)
	b = append(append(append(b, "</"...), name...), '>')
	n := &Node{Name: name, memoSize: len(b), memoStr: unsafe.String(unsafe.SliceData(b), len(b)), frozen: true}
	n.sealed.Store(true)
	return n
}

// memoContent returns the canonical form of the item's content as a span of
// its memo, when it has one and no attributes to skip: the bytes between the
// start tag and the end tag, or "" for <name/>.
func memoContent(it *Node) (string, bool) {
	m := it.memoStr
	if m == "" || it.IsText() || len(it.Attrs) > 0 {
		return "", false
	}
	if m[len(m)-2] == '/' {
		return "", true
	}
	return m[len(it.Name)+2 : len(m)-len(it.Name)-3], true
}

// componentSize is the length appendComponent writes.
func componentSize(name string, it *Node) int {
	span, inMemo := memoContent(it)
	switch {
	case !inMemo:
		c := Node{Name: name, Text: it.Text, Children: it.Kids()}
		return c.ByteSize()
	case span == "":
		return len("<") + len(name) + len("/>")
	}
	return 2*len(name) + len("<></>") + len(span)
}

// appendComponent appends the element name holding the item's content: one
// copy of its memo's span when there is one, else its text and children
// through the serializer.
func appendComponent(b []byte, name string, it *Node) []byte {
	span, inMemo := memoContent(it)
	if !inMemo {
		c := Node{Name: name, Text: it.Text, Children: it.Kids()}
		return c.appendTo(b)
	}
	b = append(append(b, '<'), name...)
	if span == "" {
		return append(b, "/>"...)
	}
	return append(append(append(append(append(b, '>'), span...), "</"...), name...), '>')
}

// Equal reports deep structural equality, ignoring attribute order.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name || a.Text != b.Text {
		return false
	}
	ak, bk := a.Kids(), b.Kids()
	if len(a.Attrs) != len(b.Attrs) || len(ak) != len(bk) {
		return false
	}
	for _, attr := range a.Attrs {
		v, ok := b.Attr(attr.Name)
		if !ok || v != attr.Value {
			return false
		}
	}
	for i := range ak {
		if !Equal(ak[i], bk[i]) {
			return false
		}
	}
	return true
}

// ParseString parses an XML document held in a string into a mutable tree:
// DecodeString's frozen tree (which two parses of one text may share, through
// the identical-frame cache), cloned.
func ParseString(s string) (*Node, error) {
	n, err := DecodeString(s)
	if err != nil {
		return nil, err
	}
	return n.Clone(), nil
}

// MustParse parses s and panics on error; intended for tests and fixtures.
func MustParse(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String returns the canonical XML serialization of the node. The result
// never aliases a memo: a decoded span's memo is a slice of the whole frame,
// and a String result kept as a map key must not pin that frame.
func (n *Node) String() string {
	b := n.appendTo(make([]byte, 0, n.ByteSize()))
	return unsafe.String(unsafe.SliceData(b), len(b)) // b is nobody else's
}

// appendTo appends the canonical serialization to b. It is the package's one
// serializer: String, Freeze and FrameEncoder.Node all write through it and
// its primitives.
func (n *Node) appendTo(b []byte) []byte {
	if n.memoStr != "" { // always, for a sealed node: the walk below reads Children
		return append(b, n.memoStr...)
	}
	if n.IsText() {
		return appendEscaped(b, n.Text, false)
	}
	b = appendAttrs(append(append(b, '<'), n.Name...), n.Attrs)
	if n.Text == "" && len(n.Children) == 0 {
		return append(b, "/>"...)
	}
	b = appendEscaped(append(b, '>'), n.Text, false)
	for _, c := range n.Children {
		b = c.appendTo(b)
	}
	return append(append(append(b, "</"...), n.Name...), '>')
}

// appendAttrs appends attrs in canonical (name-sorted) order without
// reordering the caller's slice.
func appendAttrs(b []byte, attrs []Attr) []byte {
	switch {
	case len(attrs) <= 1 || attrsSorted(attrs):
		for _, a := range attrs {
			b = appendAttr(b, a)
		}
	case len(attrs) <= 64:
		// Emit in sorted order without copying: repeated min-scan with an
		// emitted bitmask. Attribute lists are tiny, so O(k²) compares beat
		// the allocations of a copy-and-sort.
		var emitted uint64
		for range attrs {
			min := -1
			for i, a := range attrs {
				if emitted&(1<<uint(i)) != 0 {
					continue
				}
				if min < 0 || a.Name < attrs[min].Name {
					min = i
				}
			}
			emitted |= 1 << uint(min)
			b = appendAttr(b, attrs[min])
		}
	default:
		order := make([]int, len(attrs))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(i, j int) int { return cmp.Compare(attrs[i].Name, attrs[j].Name) })
		for _, i := range order {
			b = appendAttr(b, attrs[i])
		}
	}
	return b
}

func attrsSorted(attrs []Attr) bool {
	for i := 1; i < len(attrs); i++ {
		if attrs[i].Name < attrs[i-1].Name {
			return false
		}
	}
	return true
}

func appendAttr(b []byte, a Attr) []byte {
	b = append(append(append(b, ' '), a.Name...), '=', '"')
	return append(appendEscaped(b, a.Value, true), '"')
}

// attrsSize is the canonical length appendAttrs writes for attrs; attribute
// order does not affect it.
func attrsSize(attrs []Attr) int {
	size := 0
	for _, a := range attrs {
		// space, name, `="`, value, `"`
		size += 1 + len(a.Name) + 2 + len(a.Value) + escapeExtra(a.Value, true) + 1
	}
	return size
}

// appendEscaped appends s with XML entities substituted, copying unescaped
// runs in bulk. Most wire text contains no escapable characters, so the
// common case is a single append. Following canonical XML, whitespace that
// re-parsing would normalize away is written as character references:
// carriage returns everywhere (XML line-end handling turns literal CRs into
// newlines), tabs and newlines additionally inside attribute values
// (attribute-value normalization turns them into spaces). That keeps the
// canonical form a parse fixpoint.
func appendEscaped(b []byte, s string, quot bool) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\r':
			esc = "&#xD;"
		case '"':
			if !quot {
				continue
			}
			esc = "&quot;"
		case '\t':
			if !quot {
				continue
			}
			esc = "&#x9;"
		case '\n':
			if !quot {
				continue
			}
			esc = "&#xA;"
		default:
			continue
		}
		b = append(append(b, s[start:i]...), esc...)
		start = i + 1
	}
	return append(b, s[start:]...)
}

// ByteSize returns the length in bytes of the canonical serialization
// without producing it: sizes are summed arithmetically (escape overhead is
// counted, not written). A frozen node answers from its memo; a mutable tree
// is walked down to its frozen subtrees. ByteSize writes nothing, so it is
// safe wherever reading the tree is.
func (n *Node) ByteSize() int { return n.byteSize(false) }

// byteSize sums the canonical size, stopping at frozen nodes. With freeze set
// it is Freeze's walk: each node it visits is marked frozen with its size
// memoized.
func (n *Node) byteSize(freeze bool) int {
	if n.frozen {
		return n.memoSize
	}
	var size int
	if n.IsText() {
		size = len(n.Text) + escapeExtra(n.Text, false)
	} else {
		size = len("<") + len(n.Name) + attrsSize(n.Attrs)
		if n.Text == "" && len(n.Children) == 0 {
			size += len("/>")
		} else {
			size += len(">") + len(n.Text) + escapeExtra(n.Text, false)
			for _, c := range n.Children {
				size += c.byteSize(freeze)
			}
			size += len("</") + len(n.Name) + len(">")
		}
	}
	if freeze {
		n.memoSize, n.frozen = size, true
	}
	return size
}

// escapeExtra returns how many bytes entity substitution adds to s.
func escapeExtra(s string, quot bool) int {
	extra := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			extra += len("&amp;") - 1
		case '<', '>':
			extra += len("&lt;") - 1
		case '\r':
			extra += len("&#xD;") - 1
		case '"':
			if quot {
				extra += len("&quot;") - 1
			}
		case '\t', '\n':
			if quot {
				extra += len("&#x9;") - 1
			}
		}
	}
	return extra
}

// Indent returns a pretty-printed serialization with two-space indentation;
// useful for debugging and examples, not for size accounting.
func (n *Node) Indent() string {
	return string(appendIndent(nil, n, 0))
}

func appendIndent(b []byte, n *Node, depth int) []byte {
	pad := strings.Repeat("  ", depth)
	b = append(b, pad...)
	if n.IsText() {
		return append(appendEscaped(b, strings.TrimSpace(n.Text), false), '\n')
	}
	b = appendAttrs(append(append(b, '<'), n.Name...), n.Attrs)
	kids := n.Kids()
	switch {
	case n.Text == "" && len(kids) == 0:
		return append(b, "/>\n"...)
	case len(kids) == 0:
		b = appendEscaped(append(b, '>'), n.Text, false)
		return append(append(append(b, "</"...), n.Name...), ">\n"...)
	}
	b = append(b, ">\n"...)
	if n.Text != "" {
		b = append(append(b, pad...), "  "...)
		b = append(appendEscaped(b, strings.TrimSpace(n.Text), false), '\n')
	}
	for _, c := range kids {
		b = appendIndent(b, c, depth+1)
	}
	return append(append(append(append(b, pad...), "</"...), n.Name...), ">\n"...)
}

// Value returns the inner text of the first node matched by the path
// expression (see Path), or "" when nothing matches.
func (n *Node) Value(path string) string { return ParsePath(path).Value(n) }

// Number reads a field's text, or a comparison literal, as a number: trimmed
// and parsed as a float. NaN reads as text, since it can be neither ordered
// nor bounded by a histogram. Select, TopN, histogram collection and pruning
// all read through Number, so pruning by a histogram's range removes only
// items a select would reject.
func Number(text string) (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
	if err != nil || math.IsNaN(f) {
		return 0, false
	}
	return f, true
}

// Int returns the first matched value parsed as int.
func (n *Node) Int(path string) (int, error) {
	v := strings.TrimSpace(n.Value(path))
	if v == "" {
		return 0, fmt.Errorf("xmltree: path %q: no value", path)
	}
	i, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("xmltree: path %q: %w", path, err)
	}
	return i, nil
}
