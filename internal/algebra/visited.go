package algebra

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/xmltree"
)

// Visited-server memory: the plan-carried routing state that makes mutant
// query plans self-routing without livelocks. Each record remembers how many
// times a server has processed the plan and the plan fingerprint as of that
// server's most recent visit, so a router can tell a productive revisit (the
// plan mutated since the server last saw it) from pure ping-pong (nothing
// changed — forwarding back is guaranteed wasted work).
//
// The memory travels on the wire as a <visited> section of the <mqp>
// document, alongside <provenance> (see Visited.Marshal for its form).
//
// Interpretation of the records (filtering, budgets, partial results) lives
// in internal/route; this file only carries the state.

// AnnotPartial marks a result plan as an explicit partial result: the plan
// could no longer travel productively, so a server returned what was already
// reduced instead of bouncing the plan into a depth guard. Partial results
// are sub-multisets of the complete answer.
const AnnotPartial = "partial"

// PartialResult reports whether the plan is flagged as a partial result.
func (p *Plan) PartialResult() bool {
	v, _ := p.Root.Annotation(AnnotPartial)
	return v == "true"
}

// MarkPartialResult flags the plan as a partial result.
func (p *Plan) MarkPartialResult() { p.Root.Annotate(AnnotPartial, "true") }

// AnnotPartialReason says why a partial result was emitted instead of a
// complete one: "admission" (a peer's frame queue rejected the plan under
// overload), "shutdown" (the serving peer drained its queue while closing)
// or "budget" (a join's output would have exceeded the step budget,
// engine.ErrBudget). Absent on a partial whose routing ran out of productive
// hops, and on pre-runtime partials, so the two cannot be told apart.
const AnnotPartialReason = "partial-reason"

// SetPartialReason records why the plan came back partial.
func (p *Plan) SetPartialReason(reason string) { p.Root.Annotate(AnnotPartialReason, reason) }

// PartialReason returns the recorded reason, or "" when none was set.
func (p *Plan) PartialReason() string {
	v, _ := p.Root.Annotation(AnnotPartialReason)
	return v
}

// VisitRecord is one server's entry in the visited memory.
type VisitRecord struct {
	Server string
	// Count is how many times the server has processed the plan.
	Count int
	// Fingerprint is the plan-root fingerprint as of the server's most
	// recent visit (see Fingerprint).
	Fingerprint uint64
}

// Visited is a plan's visited-server memory. The zero value is not usable;
// construct with NewVisited (or Plan.VisitedMemory).
type Visited struct {
	records map[string]*VisitRecord
	// elem caches the marshaled <visited> element, frozen so every hop that
	// serializes the plan between mutations aliases it. Invalidated by Mark.
	elem *xmltree.Node
}

// NewVisited creates an empty visited memory.
func NewVisited() *Visited {
	return &Visited{records: map[string]*VisitRecord{}}
}

// VisitedMemory returns the plan's visited-server memory, creating it on
// first use.
func (p *Plan) VisitedMemory() *Visited {
	if p.Visited == nil {
		p.Visited = NewVisited()
	}
	return p.Visited
}

// Lookup returns the record for a server and whether it exists.
func (v *Visited) Lookup(server string) (VisitRecord, bool) {
	r, ok := v.records[server]
	if !ok {
		return VisitRecord{}, false
	}
	return *r, true
}

// Len returns the number of servers remembered.
func (v *Visited) Len() int { return len(v.records) }

// Servers returns the remembered servers, sorted.
func (v *Visited) Servers() []string {
	out := make([]string, 0, len(v.records))
	for s := range v.records {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Mark records one visit by the server, updating its fingerprint to the
// plan's current state.
func (v *Visited) Mark(server string, fp uint64) {
	r, ok := v.records[server]
	if !ok {
		r = &VisitRecord{Server: server}
		v.records[server] = r
	}
	r.Count++
	r.Fingerprint = fp
	v.elem = nil
}

// Clone deep-copies the memory.
func (v *Visited) Clone() *Visited {
	if v == nil {
		return nil
	}
	cp := &Visited{records: make(map[string]*VisitRecord, len(v.records)), elem: v.elem}
	for s, r := range v.records {
		rc := *r
		cp.records[s] = &rc
	}
	return cp
}

// Marshal renders the memory as its frozen <visited> element. The element is
// cached until the next Mark, so serializing a plan on every fallback
// candidate (or measuring it) reuses the same immutable subtree.
//
// The wire form is one text run packing every record, fingerprints in
// unpadded base64url —
//
//	<visited>meta:9020 2 FnYrjV5vcIE;s1:9020 Cg4iPbzW_yQ</visited>
//
// Records are ';'-separated; fields are server, optional decimal count
// (omitted when 1, the overwhelmingly common case), and fingerprint. A
// server name therefore holds no ';' and no Unicode space: the only name a
// processor marks is its own address, which mqp.New checks.
func (v *Visited) Marshal() *xmltree.Node {
	if v.elem != nil {
		return v.elem
	}
	e := xmltree.Elem(visitedElem)
	var sb strings.Builder
	var fp [8]byte
	for i, s := range v.Servers() {
		r := v.records[s]
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(r.Server)
		if r.Count != 1 {
			sb.WriteByte(' ')
			sb.WriteString(strconv.Itoa(r.Count))
		}
		sb.WriteByte(' ')
		binary.BigEndian.PutUint64(fp[:], r.Fingerprint)
		sb.WriteString(base64.RawURLEncoding.EncodeToString(fp[:]))
	}
	e.Text = sb.String()
	v.elem = e.Freeze()
	return v.elem
}

// visitedElem is the element name of the visited section in <mqp> documents.
const visitedElem = "visited"

// UnmarshalVisited parses a <visited> section in the form Marshal writes. An
// element inside the section, or a record it cannot read, is an error: a
// section that decayed into empty memory would reopen livelocks. Attributes
// are ignored: the revisit bound is the router's, not the sender's.
func UnmarshalVisited(e *xmltree.Node) (*Visited, error) {
	if e.Name != visitedElem {
		return nil, fmt.Errorf("algebra: expected <%s>, got <%s>", visitedElem, e.Name)
	}
	v := NewVisited()
	for _, c := range e.Kids() {
		if !c.IsText() {
			return nil, fmt.Errorf("algebra: <%s> inside <%s>", c.Name, visitedElem)
		}
	}
	packed := strings.TrimSpace(e.InnerText())
	if packed == "" {
		return v, nil
	}
	for _, rec := range strings.Split(packed, ";") {
		fields := strings.Fields(rec)
		var server, countStr, fpStr string
		switch len(fields) {
		case 2:
			server, countStr, fpStr = fields[0], "1", fields[1]
		case 3:
			server, countStr, fpStr = fields[0], fields[1], fields[2]
		default:
			return nil, fmt.Errorf("algebra: bad visited record %q", rec)
		}
		// A non-positive count would defeat the revisit bound the records
		// exist to enforce; reject it like any other malformed section.
		n, err := strconv.Atoi(countStr)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("algebra: bad visit count %q for %s", countStr, server)
		}
		raw, err := base64.RawURLEncoding.DecodeString(fpStr)
		if err != nil || len(raw) != 8 {
			return nil, fmt.Errorf("algebra: bad fingerprint %q for %s", fpStr, server)
		}
		v.records[server] = &VisitRecord{
			Server: server, Count: n, Fingerprint: binary.BigEndian.Uint64(raw),
		}
	}
	return v, nil
}

// Fingerprint digests the operator tree's routing-relevant state: kinds,
// resource names, predicates, operator parameters, annotations, and data
// payload shapes. Two fingerprints are equal exactly when no server has
// mutated the plan in between — bind, fetch, reduce, rewrite and annotate
// all change it, while sections outside the root (provenance, the visited
// memory itself) do not, so a mere forward leaves it untouched.
//
// The digest is computed from the same representation the wire format
// carries, so it is stable across a Marshal/Unmarshal round trip — the
// property that lets a server compare its recorded fingerprint against a
// plan that has hopped through other servers since.
//
// The hash is FNV-1a (64-bit) over little-endian 8-byte integers and
// length-prefixed strings, written out by hand: the value is on the wire in
// <visited> records, so it is pinned bit for bit against hash/fnv by
// TestFingerprintMatchesFNV.
func Fingerprint(n *Node) uint64 {
	return fingerprintNode(fnvOffset64, n)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvZeros[k] is fnvPrime64^k mod 2^64: folding a zero byte is
// h = (h ^ 0) * prime, so k of them in a row are one multiplication.
var fnvZeros = func() (z [9]uint64) {
	z[0] = 1
	for k := 1; k < len(z); k++ {
		z[k] = z[k-1] * fnvPrime64
	}
	return z
}()

// fnvInt folds i into h as eight little-endian bytes. Nearly every integer a
// plan folds is a kind, a flag, a count or a short string's length: one or
// two low bytes, then zeros, which fnvZeros folds at once.
func fnvInt(h uint64, i int) uint64 {
	v := uint64(i)
	zeros := 8
	for ; v != 0; v >>= 8 {
		h = (h ^ (v & 0xff)) * fnvPrime64
		zeros--
	}
	return h * fnvZeros[zeros]
}

// fnvStr folds s into h, length first.
func fnvStr(h uint64, s string) uint64 {
	h = fnvInt(h, len(s))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fingerprintNode(h uint64, m *Node) uint64 {
	h = fnvInt(h, int(m.Kind))
	h = fnvStr(h, m.URL)
	h = fnvStr(h, m.PathExp)
	h = fnvStr(h, m.URN)
	if m.Pred != nil {
		h = fnvStr(h, m.Pred.String())
	}
	h = fnvStr(h, joinFields(m.Fields))
	h = fnvStr(h, m.As)
	h = fnvStr(h, m.LeftKey)
	h = fnvStr(h, m.RightKey)
	h = fnvStr(h, m.LeftName)
	h = fnvStr(h, m.RightName)
	h = fnvInt(h, m.N)
	h = fnvStr(h, m.OrderBy)
	if m.Desc {
		h = fnvInt(h, 1)
	} else {
		h = fnvInt(h, 0)
	}
	if len(m.Annotations) > 0 {
		keys := make([]string, 0, len(m.Annotations))
		for k := range m.Annotations {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h = fnvStr(h, k)
			h = fnvStr(h, m.Annotations[k])
		}
	}
	h = fnvInt(h, len(m.Docs))
	for _, d := range m.Docs {
		// ByteSize is arithmetic (and a memo read for the frozen payloads
		// in flight), so digesting data payloads costs no serialization.
		h = fnvInt(h, d.ByteSize())
	}
	h = fnvInt(h, len(m.Children))
	for _, c := range m.Children {
		h = fingerprintNode(h, c)
	}
	return h
}
