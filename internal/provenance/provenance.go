// Package provenance implements §5.1's MQP provenance: a tamper-evident
// history of the servers a plan visited and what each did (bound resources,
// provided data, re-optimized, reduced sub-expressions, or merely
// forwarded), when it did it, and how current the information was.
//
// Each visit is HMAC-signed over its content chained with the previous
// visit's signature, approximating the paper's "digitally signed by the
// server that adds it" with stdlib primitives. Verification, spoof
// detection (a server binding a competitor's source to the empty set shows
// up as a missing visit), and verification-query construction live here.
package provenance

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"

	"repro/internal/algebra"
	"repro/internal/xmltree"
)

// Action enumerates what a server did to an MQP during a visit (§5.1).
type Action string

// Visit actions.
const (
	ActionBind     Action = "bind"     // resolved a URN to URLs/alternatives
	ActionData     Action = "data"     // substituted data for a URL
	ActionReduce   Action = "reduce"   // evaluated a sub-expression
	ActionOptimize Action = "optimize" // rewrote the plan
	ActionForward  Action = "forward"  // merely forwarded
	ActionAnnotate Action = "annotate" // attached statistics instead of work
)

// Visit is one provenance record.
type Visit struct {
	Server string
	Action Action
	// Detail names the resource acted on (a URN, a URL) or the rewrite.
	Detail string
	// At is the virtual time of the action.
	At time.Duration
	// StalenessMin records how current the information used was (§4.3).
	StalenessMin int
	// Sig is the hex HMAC over this visit chained with the previous one.
	Sig string
}

func (v Visit) content(prevSig string) []byte {
	return []byte(prevSig + "|" + v.Server + "|" + string(v.Action) + "|" + v.Detail +
		"|" + strconv.FormatInt(int64(v.At), 10) + "|" + strconv.Itoa(v.StalenessMin))
}

// Trail is the ordered visit history carried inside an MQP.
//
// Grow a trail through Append only. Visits is exported for inspection and
// for constructing a trail wholesale, but editing an existing entry in
// place is unsupported: Marshal may serve a cached element that predates
// the edit (the cache is validated by visit count, which an in-place edit
// does not change) — and an edited visit would fail signature verification
// anyway. To simulate tampering, build a fresh Trail from a copied Visits
// slice.
type Trail struct {
	Visits []Visit
	// elem caches the marshaled <provenance> element. Its <visit> children
	// are frozen (immutable, aliasable), so a hop extends the trail by
	// copying only the element header and appending one new child —
	// marshaling is incremental instead of rebuilt per hop. Valid only
	// while it has exactly one child per visit.
	elem *xmltree.Node
}

// Keyring returns the signing key for a server; in a real deployment this
// would be a PKI lookup.
type Keyring func(server string) []byte

// Append signs a visit with the server's key and adds it to the trail. When
// the trail carries a marshaled element (it arrived inside a plan), the
// element grows by one <visit> child copy-on-write instead of being marked
// for a rebuild. Only the new visit is serialized: the grown element is
// frozen with sizes alone, so the earlier visits' bytes are not copied into
// a memo the next hop would discard.
func (t *Trail) Append(v Visit, key []byte) {
	prev := ""
	if len(t.Visits) > 0 {
		prev = t.Visits[len(t.Visits)-1].Sig
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(v.content(prev))
	v.Sig = hex.EncodeToString(mac.Sum(nil))
	t.Visits = append(t.Visits, v)
	if t.elem != nil && len(t.elem.Kids()) == len(t.Visits)-1 {
		t.elem = t.elem.CloneShallow().Add(marshalVisit(v)).FreezeSizes()
	} else {
		t.elem = nil
	}
}

// Verify checks every signature in the chain using the keyring. It returns
// the index of the first bad visit and an error, or (-1, nil) when the
// whole trail verifies.
func (t *Trail) Verify(keys Keyring) (int, error) {
	prev := ""
	for i, v := range t.Visits {
		key := keys(v.Server)
		if key == nil {
			return i, fmt.Errorf("provenance: no key for server %s", v.Server)
		}
		mac := hmac.New(sha256.New, key)
		mac.Write(v.content(prev))
		want := hex.EncodeToString(mac.Sum(nil))
		if !hmac.Equal([]byte(want), []byte(v.Sig)) {
			return i, fmt.Errorf("provenance: visit %d by %s fails verification", i, v.Server)
		}
		prev = v.Sig
	}
	return -1, nil
}

// Visited reports whether any visit was made by the server.
func (t *Trail) Visited(server string) bool {
	for _, v := range t.Visits {
		if v.Server == server {
			return true
		}
	}
	return false
}

// Binders returns the servers that recorded a bind or data action for the
// named resource, in visit order.
func (t *Trail) Binders(resource string) []string {
	var out []string
	for _, v := range t.Visits {
		if (v.Action == ActionBind || v.Action == ActionData || v.Action == ActionReduce) && v.Detail == resource {
			out = append(out, v.Server)
		}
	}
	return out
}

// MaxStaleness returns the largest staleness bound recorded on the trail —
// an upper bound on how out-of-date the answer may be.
func (t *Trail) MaxStaleness() int {
	max := 0
	for _, v := range t.Visits {
		if v.StalenessMin > max {
			max = v.StalenessMin
		}
	}
	return max
}

// marshalVisit renders one <visit>, building its attribute list at final
// size in one allocation (serialization sorts attributes, so emission order
// here is irrelevant). The element is frozen: visit records never change
// once signed, so every later hop aliases it.
func marshalVisit(v Visit) *xmltree.Node {
	attrs := make([]xmltree.Attr, 0, 6)
	attrs = append(attrs,
		xmltree.Attr{Name: "server", Value: v.Server},
		xmltree.Attr{Name: "action", Value: string(v.Action)})
	if v.Detail != "" {
		attrs = append(attrs, xmltree.Attr{Name: "detail", Value: v.Detail})
	}
	attrs = append(attrs, xmltree.Attr{Name: "at", Value: strconv.FormatInt(int64(v.At/time.Microsecond), 10)})
	if v.StalenessMin > 0 {
		attrs = append(attrs, xmltree.Attr{Name: "staleness", Value: strconv.Itoa(v.StalenessMin)})
	}
	attrs = append(attrs, xmltree.Attr{Name: "sig", Value: v.Sig})
	return xmltree.ElemAttrs("visit", attrs...).Freeze()
}

// Marshal renders the trail as the <provenance> section carried in a plan's
// Extra map. The returned element is frozen — callers alias it, never
// mutate it — and cached: a trail that arrived marshaled and grew by one
// visit reuses every existing <visit> element.
func (t *Trail) Marshal() *xmltree.Node {
	if t.elem != nil && len(t.elem.Kids()) == len(t.Visits) {
		return t.elem
	}
	visits := make([]*xmltree.Node, len(t.Visits))
	for i, v := range t.Visits {
		visits[i] = marshalVisit(v)
	}
	t.elem = xmltree.Elem("provenance", visits...).Freeze()
	return t.elem
}

// Unmarshal parses a <provenance> section.
func Unmarshal(e *xmltree.Node) (*Trail, error) {
	if e.Name != "provenance" {
		return nil, fmt.Errorf("provenance: expected <provenance>, got <%s>", e.Name)
	}
	t := &Trail{}
	if e.Frozen() {
		// Adopt the element as the marshal cache; validated below against
		// the parsed visit count (non-visit children would invalidate it).
		t.elem = e
	}
	for _, ve := range e.ChildrenNamed("visit") {
		atUS, err := strconv.ParseInt(ve.AttrDefault("at", "0"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("provenance: bad at attr: %w", err)
		}
		stale, err := strconv.Atoi(ve.AttrDefault("staleness", "0"))
		if err != nil {
			return nil, fmt.Errorf("provenance: bad staleness attr: %w", err)
		}
		t.Visits = append(t.Visits, Visit{
			Server:       ve.AttrDefault("server", ""),
			Action:       Action(ve.AttrDefault("action", "")),
			Detail:       ve.AttrDefault("detail", ""),
			At:           time.Duration(atUS) * time.Microsecond,
			StalenessMin: stale,
			Sig:          ve.AttrDefault("sig", ""),
		})
	}
	if t.elem != nil && len(t.elem.Kids()) != len(t.Visits) {
		t.elem = nil
	}
	return t, nil
}

// FromPlan extracts the trail carried by a plan (empty trail when absent).
func FromPlan(p *algebra.Plan) (*Trail, error) {
	e, ok := p.Extra["provenance"]
	if !ok {
		return &Trail{}, nil
	}
	return Unmarshal(e)
}

// ToPlan stores the trail into the plan's Extra map.
func ToPlan(p *algebra.Plan, t *Trail) {
	if p.Extra == nil {
		p.Extra = map[string]*xmltree.Node{}
	}
	p.Extra["provenance"] = t.Marshal()
}

// UncoveredVisits returns the servers recorded in the plan's visited-server
// memory (the routing state of internal/route) that never signed a trail
// visit. In a deployment where every server signs provenance, routing memory
// must be consistent with the trail — a server marks the visited section
// only while processing the plan, which also appends a signed visit — so a
// non-empty return means either a forged <visited> entry or a server
// dropping provenance records.
func UncoveredVisits(p *algebra.Plan, t *Trail) []string {
	if p.Visited == nil {
		return nil
	}
	var out []string
	for _, s := range p.Visited.Servers() {
		if !t.Visited(s) {
			out = append(out, s)
		}
	}
	return out
}

// VerificationQuery builds the §5.1 spoof check: a count(σ(resource)) plan
// that a suspicious client can send toward the server that should hold the
// resource. target is where the count should be delivered.
func VerificationQuery(id, target, urn string, pred algebra.Predicate) *algebra.Plan {
	src := algebra.URN(urn)
	var body *algebra.Node = src
	if pred != nil {
		body = algebra.Select(pred, src)
	}
	return algebra.NewPlan(id, target, algebra.Display(algebra.Count(body)))
}

// Shortcut is a routing suggestion derived from a trail (§5.1 "meta-index
// updating"): Teach should learn to route plans matching the detail
// directly to Direct, skipping Via.
type Shortcut struct {
	Teach  string // server that forwarded blindly
	Via    string // intermediate that only forwarded
	Direct string // server that did the real work
	Detail string // the resource bound there
}

// SuggestShortcuts inspects a trail for the §5.1 pattern "server S is
// getting a lot of MQPs forwarded from server T that it just ends up
// forwarding to server R": whenever a server's only recorded action is a
// forward and the next server bound a resource, the forwarder's upstream
// peer could be taught to route directly. Visits are examined in order; a
// suggestion is emitted per (via, direct) pair.
func SuggestShortcuts(t *Trail) []Shortcut {
	var out []Shortcut
	// Group consecutive visits by server.
	type seg struct {
		server  string
		actions []Visit
	}
	var segs []seg
	for _, v := range t.Visits {
		if len(segs) > 0 && segs[len(segs)-1].server == v.Server {
			segs[len(segs)-1].actions = append(segs[len(segs)-1].actions, v)
			continue
		}
		segs = append(segs, seg{server: v.Server, actions: []Visit{v}})
	}
	onlyForwarded := func(s seg) bool {
		for _, v := range s.actions {
			if v.Action != ActionForward {
				return false
			}
		}
		return true
	}
	firstBind := func(s seg) (string, bool) {
		for _, v := range s.actions {
			if v.Action == ActionBind || v.Action == ActionData {
				return v.Detail, true
			}
		}
		return "", false
	}
	for i := 1; i+1 < len(segs)+1 && i < len(segs); i++ {
		if !onlyForwarded(segs[i]) {
			continue
		}
		if i+1 >= len(segs) {
			continue
		}
		detail, ok := firstBind(segs[i+1])
		if !ok {
			continue
		}
		out = append(out, Shortcut{
			Teach:  segs[i-1].server,
			Via:    segs[i].server,
			Direct: segs[i+1].server,
			Detail: detail,
		})
	}
	return out
}

// SuspectMissingSource inspects a finished plan: for every URN in the
// retained original query, if no trail visit bound or reduced it and no
// visited server recorded data for it, that URN is returned as suspect —
// the §5.1 scenario where a server binds a competitor's source to the empty
// set without the plan ever visiting it.
func SuspectMissingSource(p *algebra.Plan, t *Trail) []string {
	if p.Original == nil {
		return nil
	}
	var suspects []string
	for _, urn := range p.Original.URNs() {
		if len(t.Binders(urn)) == 0 {
			suspects = append(suspects, urn)
		}
	}
	return suspects
}
