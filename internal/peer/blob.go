package peer

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/blobstore"
	"repro/internal/simnet"
	"repro/internal/wire"
	"repro/internal/xmltree"
)

// Payload-by-reference: the peer-side runtime of the content-addressed
// payload store (internal/blobstore).
//
// A peer learns whether a neighbor holds a store from its transport alone
// (Transport.PeerCaps answers wire.CapBlobRef; a peer declares its own byte
// through Caps). When the neighbor does, the peer substitutes payload
// documents it has already exchanged inline with that neighbor (the
// per-neighbor "taught" set) with references in the plans and results it
// sends — algebra.EncodeFrameRefs writes each run of them as one
// <blob fp="fp1 fp2 …"/> and marks the frame's root with algebra.BlobsAttr,
// telling the receiver to resolve them — and resolves incoming references
// against its own store. Fingerprints go from digest to frame and back with
// no string: blobRef appends each one's wire form into the frame
// (blobstore.FP.Append), and the resolver decodes each one from the
// attribute in place (blobstore.ParseFP). A reference that misses — the
// teaching send was dropped, the store was restarted — is repaired by a
// fetch-on-miss request back to the sender, whose reply carries the payload
// inline: the optimization degrades to inline shipping, never to a wrong
// answer. Every fingerprint a peer has taught stays pinned in its own store
// precisely so that fetch is always servable.
//
// Refcount ownership (see blobstore): each container below owns one
// reference per fingerprint it holds and releases it on eviction —
//   - the per-neighbor taught sets (bounded FIFO per neighbor),
//   - the wire-taught FIFO of payloads interned off received bodies
//     (bounded, shared across neighbors),
//   - the collection store (one reference per installed item, released
//     when a snapshot is replaced; see AddCollection/SetItems).
// The prepared-plan cache deliberately owns nothing: its freight is
// canonicalized with Canonicalize, so cache eviction needs no bookkeeping.

// blobMinBytes is the smallest canonical payload worth teaching or
// substituting: below it a reference (35 bytes alone, 23 more in a run) plus
// the risk of a fetch round trip saves nothing.
const blobMinBytes = 128

// blobMaxTaughtPerPeer bounds each per-neighbor taught set; the oldest
// teaching is forgotten (and its pin released) first.
const blobMaxTaughtPerPeer = 1024

// blobMaxWireTaught bounds the wire-taught FIFO of payloads interned off
// received bodies.
const blobMaxWireTaught = 4096

// BlobNetStats counts a peer's payload-by-reference wire activity.
type BlobNetStats struct {
	// ByRefSent counts payload references substituted into outgoing
	// bodies; ByRefBytes is the canonical bytes they replaced.
	ByRefSent  uint64
	ByRefBytes int64
	// RefsResolved counts incoming references answered by the local store.
	RefsResolved uint64
	// Fetches counts fetch-on-miss requests issued; FetchRetries the
	// second attempts; FetchFailures the fetches that failed even after
	// the retry (the plan is then stuck, attributably).
	Fetches, FetchRetries, FetchFailures uint64
	// FetchServed counts fetch requests this peer answered from its store.
	FetchServed uint64
	// Taught counts fingerprints pinned into per-neighbor taught sets.
	Taught uint64
}

// pinSet is a FIFO-bounded set of fingerprints, each member holding one store
// reference: the fingerprints one neighbor provably exchanged inline with this
// peer (blobState.taught), or the payloads interned off received bodies
// (blobState.wire). blobState.mu guards it.
type pinSet struct {
	limit int
	set   map[blobstore.FP]bool
	fifo  []blobstore.FP
}

func newPinSet(limit int) *pinSet {
	return &pinSet{limit: limit, set: map[blobstore.FP]bool{}}
}

// add inserts fp, which the caller has found absent, and past the bound drops
// the oldest member, whose reference the caller releases once it has let go of
// the lock.
func (s *pinSet) add(fp blobstore.FP) (evicted blobstore.FP, ok bool) {
	s.set[fp] = true
	s.fifo = append(s.fifo, fp)
	if len(s.fifo) <= s.limit {
		return evicted, false
	}
	evicted, s.fifo = s.fifo[0], s.fifo[1:]
	delete(s.set, evicted)
	return evicted, true
}

// blobFetch is one in-flight fetch-on-miss, single-flighted per
// fingerprint: concurrent resolvers of the same missing payload share one
// request. Waiters charge no virtual time (they did not issue it).
type blobFetch struct {
	done chan struct{}
	node *xmltree.Node
	err  error
}

// blobState is a peer's payload-by-reference runtime, nil unless
// Config.Blobs is set.
type blobState struct {
	store *blobstore.Store

	mu       sync.Mutex
	taught   map[string]*pinSet
	wire     *pinSet
	collFPs  map[string][]blobstore.FP
	fetching map[blobstore.FP]*blobFetch
	stats    BlobNetStats
}

func newBlobState(store *blobstore.Store) *blobState {
	return &blobState{
		store:    store,
		taught:   map[string]*pinSet{},
		wire:     newPinSet(blobMaxWireTaught),
		collFPs:  map[string][]blobstore.FP{},
		fetching: map[blobstore.FP]*blobFetch{},
	}
}

// BlobNetStats snapshots the peer's payload-by-reference counters; zero when
// the store is disabled.
func (p *Peer) BlobNetStats() BlobNetStats {
	if p.blobs == nil {
		return BlobNetStats{}
	}
	p.blobs.mu.Lock()
	defer p.blobs.mu.Unlock()
	return p.blobs.stats
}

// BlobStore returns the peer's payload store, nil when disabled.
func (p *Peer) BlobStore() *blobstore.Store {
	if p.blobs == nil {
		return nil
	}
	return p.blobs.store
}

// Caps is the capability byte this peer declares to a simnet.Network it is
// added to: wire.CapBlobRef with a payload store, 0 without.
func (p *Peer) Caps() byte {
	if p.blobs == nil {
		return 0
	}
	return wire.CapBlobRef
}

// blobRef is the payload-reference policy for a plan or result bound for
// `to` (algebra.EncodeFrameRefs): nil without a store, so the plan is staged
// plain; otherwise a func that names each payload the receiver provably holds
// by appending its fingerprint's wire form to dst, and teaches the rest as
// they ship inline. The transport is asked for the receiver's capability once
// per frame, on the first payload worth a reference, so payload-free plans
// never ask (on TCP, asking dials).
func (p *Peer) blobRef(to string) func(doc *xmltree.Node, dst []byte) ([]byte, bool) {
	b := p.blobs
	if b == nil {
		return nil
	}
	checked, capable := false, false
	return func(doc *xmltree.Node, dst []byte) ([]byte, bool) {
		if doc.ByteSize() < blobMinBytes {
			return dst, false
		}
		if !checked {
			caps, err := p.net.PeerCaps(to)
			checked, capable = true, err == nil && caps&wire.CapBlobRef != 0
		}
		if !capable {
			return dst, false
		}
		fp, size := blobstore.Fingerprint(doc)
		// Teaching pins doc, and the store freezes what it pins: a caller's
		// mutable payload is taught as a copy (Share), never frozen under it.
		if !b.teach(to, fp, doc.Share()) {
			// First exchange of these bytes with `to`: ship inline, so the
			// receiver can intern them. Next time they go by reference.
			return dst, false
		}
		b.mu.Lock()
		b.stats.ByRefSent++
		b.stats.ByRefBytes += int64(size)
		b.mu.Unlock()
		return fp.Append(dst), true
	}
}

// teach records that `to` is about to hold doc's bytes (we are sending them
// inline, or just received them from `to`). It reports whether the
// fingerprint was already taught — i.e. whether the receiver provably holds
// it and a reference may be sent instead. A newly taught fingerprint is
// pinned in this peer's own store so a later fetch-on-miss is always
// servable.
func (b *blobState) teach(to string, fp blobstore.FP, doc *xmltree.Node) bool {
	b.mu.Lock()
	ts := b.taughtTo(to)
	if ts.set[fp] {
		b.mu.Unlock()
		return true
	}
	b.mu.Unlock()
	// Pin outside the state lock: Intern takes the store's own lock.
	b.store.Intern(doc)
	b.mu.Lock()
	if ts.set[fp] { // raced with another sender teaching the same bytes
		b.mu.Unlock()
		b.store.Release(fp)
		return true
	}
	evict, evicted := ts.add(fp)
	b.stats.Taught++
	b.mu.Unlock()
	if evicted {
		b.store.Release(evict)
	}
	return false
}

// taughtTo returns the neighbor's taught set, made on first use. Callers hold
// b.mu.
func (b *blobState) taughtTo(addr string) *pinSet {
	ts := b.taught[addr]
	if ts == nil {
		ts = newPinSet(blobMaxTaughtPerPeer)
		b.taught[addr] = ts
	}
	return ts
}

// internWire interns a payload received inline from `from` into the store,
// pinned by the wire-taught FIFO, and records it as taught toward `from`
// (both ends now hold the bytes, so either may reference them). Returns the
// canonical alias.
func (b *blobState) internWire(from string, doc *xmltree.Node) *xmltree.Node {
	canon, fp := b.store.Intern(doc)
	b.mu.Lock()
	if b.wire.set[fp] {
		b.mu.Unlock()
		b.store.Release(fp) // the FIFO already owns its pin
	} else {
		evict, evicted := b.wire.add(fp)
		b.mu.Unlock()
		if evicted {
			b.store.Release(evict)
		}
	}
	if b.store.Retain(fp) { // the taught set's own pin
		b.mu.Lock()
		ts := b.taughtTo(from)
		if ts.set[fp] {
			b.mu.Unlock()
			b.store.Release(fp)
		} else {
			evict, evicted := ts.add(fp)
			b.stats.Taught++
			b.mu.Unlock()
			if evicted {
				b.store.Release(evict)
			}
		}
	}
	return canon
}

// blobDecode resolves a received plan/result body: replaces <blob>
// references with payloads from the store (fetching misses back from the
// sender), and interns inline payloads so repeated freight collapses to one
// resident copy. The returned delay is the virtual time fetch-on-miss round
// trips cost, to be charged to the plan's clock. Unmarked bodies (or a peer
// without a store) pass through untouched.
func (p *Peer) blobDecode(msg *simnet.Message) (*xmltree.Node, time.Duration, error) {
	if p.blobs == nil || !algebra.Marked(msg.Body) {
		return msg.Body, 0, nil
	}
	b := p.blobs
	var delay time.Duration
	resolved, err := algebra.ResolveBlobs(msg.Body,
		func(fpStr string) (*xmltree.Node, error) {
			fp, ok := blobstore.ParseFP(fpStr)
			if !ok {
				return nil, fmt.Errorf("malformed fingerprint %q", fpStr)
			}
			if n, ok := b.store.Get(fp); ok {
				b.mu.Lock()
				b.stats.RefsResolved++
				b.mu.Unlock()
				return n, nil
			}
			n, d, err := b.fetchMissing(p, msg.From, fp, msg.At+delay)
			delay += d
			return n, err
		},
		func(doc *xmltree.Node) *xmltree.Node {
			if doc.ByteSize() < blobMinBytes {
				return doc
			}
			return b.internWire(msg.From, doc)
		})
	if err != nil {
		return nil, delay, err
	}
	return resolved, delay, nil
}

// fetchMissing pulls a missing payload from the peer that referenced it —
// the inline fallback of the by-reference path. One request, one retry;
// requests for the same fingerprint are single-flighted. A reply whose
// payload does not hash to fp is a failed attempt, like an unreachable
// sender, and is never interned; a matching one is interned like any inline
// receipt. Returns the virtual time the round trip(s) cost.
func (b *blobState) fetchMissing(p *Peer, from string, fp blobstore.FP, at time.Duration) (*xmltree.Node, time.Duration, error) {
	b.mu.Lock()
	if c := b.fetching[fp]; c != nil {
		b.mu.Unlock()
		<-c.done
		return c.node, 0, c.err
	}
	c := &blobFetch{done: make(chan struct{})}
	b.fetching[fp] = c
	b.stats.Fetches++
	b.mu.Unlock()

	req := xmltree.ElemAttrs("blobfetch", xmltree.Attr{Name: "fp", Value: fp.String()})
	var delay time.Duration
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			b.mu.Lock()
			b.stats.FetchRetries++
			b.mu.Unlock()
		}
		reply, rat, err := p.net.Request(&simnet.Message{From: p.addr, To: from, Kind: KindBlobFetch, At: at + delay}, req.Stage)
		if rat > at+delay {
			// Virtual time passed either way: a dropped request still burned
			// its timeout before the retry could go out.
			delay = rat - at
		}
		if err == nil {
			els := reply.Elements()
			if len(els) == 0 {
				lastErr = fmt.Errorf("empty fetch reply")
				continue
			}
			if got, _ := blobstore.Fingerprint(els[0]); got != fp {
				lastErr = fmt.Errorf("fetch reply holds blob %s", got)
				continue
			}
			c.node = b.internWire(from, els[0])
			break
		}
		lastErr = err
	}
	if c.node == nil {
		b.mu.Lock()
		b.stats.FetchFailures++
		b.mu.Unlock()
		c.err = fmt.Errorf("blob %s fetch from %s failed after retry: %w", fp, from, lastErr)
	}
	close(c.done)
	b.mu.Lock()
	delete(b.fetching, fp)
	b.mu.Unlock()
	return c.node, delay, c.err
}

// serveBlobFetch answers a fetch-on-miss request from the store. A miss is
// an error — by the teaching discipline this peer pins everything it has
// referenced, so a miss means the requester was taught by someone else (or
// the reference was forged) and the requester's retry/failure path owns the
// outcome.
func (p *Peer) serveBlobFetch(req *simnet.Message) (*xmltree.Node, error) {
	if p.blobs == nil {
		return nil, fmt.Errorf("peer %s: no payload store", p.addr)
	}
	fpStr := req.Body.AttrDefault("fp", "")
	fp, ok := blobstore.ParseFP(fpStr)
	if !ok {
		return nil, fmt.Errorf("peer %s: malformed blob fingerprint %q", p.addr, fpStr)
	}
	n, ok := p.blobs.store.Get(fp)
	if !ok {
		return nil, fmt.Errorf("peer %s: blob %s not resident", p.addr, fpStr)
	}
	p.blobs.mu.Lock()
	p.blobs.stats.FetchServed++
	p.blobs.mu.Unlock()
	return xmltree.Elem("blobdata", n.Share()), nil
}

// internCollection interns a collection snapshot's items, returning the
// canonical aliases to install. The store reference per item is owned by
// the collection slot: replacing a snapshot releases the previous one.
func (b *blobState) internCollection(pathExp string, items []*xmltree.Node) []*xmltree.Node {
	canon := make([]*xmltree.Node, len(items))
	fps := make([]blobstore.FP, len(items))
	for i, it := range items {
		canon[i], fps[i] = b.store.Intern(it)
	}
	b.mu.Lock()
	old := b.collFPs[pathExp]
	b.collFPs[pathExp] = fps
	b.mu.Unlock()
	for _, fp := range old {
		b.store.Release(fp)
	}
	return canon
}
