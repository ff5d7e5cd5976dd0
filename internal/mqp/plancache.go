// Prepared-plan cache: the N1QL-style prepared-statement optimization
// adapted to mutant query plans. A plan is found by the exact bytes of its
// operator tree (algebra.Plan.PreparedKey): for a plan off the wire, the
// <plan> operator element's own bytes, looked up before the operator tree is
// built. When the same operator bytes arrive again (the common case under
// load: many clients issuing the same query), the tree is never built, and
// the bind/rewrite/resolve/reduce stages are skipped: the prepared result —
// an immutable, fully-reduced operator tree with frozen payloads — is shared
// directly into the incoming plan.
//
// Why a hit is safe:
//
//   - The key is exact. Equal bytes are the same operator tree, so there is
//     no digest to collide and no structural comparison to make.
//   - An entry is inserted only after Plan.Validate and the transfer policy
//     passed on those bytes at this processor, and both read nothing but the
//     operator tree and Self. A plan that fails them is never inserted, so it
//     fails on every arrival. The plan's target, which the key does not
//     cover, is checked on every hit.
//   - One epoch: the cache holds entries of one generation
//     (Processor.generation: catalog plus store mutation counters, monotone).
//     A lookup or insert at a newer generation empties it first, an insert
//     prepared under an older one is dropped, and a reader that saw an older
//     generation clears nothing. Only entries that could never hit again are
//     removed.
//   - Immutability: the prepared root is handed out shared. Processing never
//     mutates it on the hit path (the one exception, last-stop
//     materialization, clones first), so any number of concurrent steps can
//     hold the same entry — the same discipline frozen xmltree payloads
//     already follow.
//
// Only data-free plans are keyed — a plan carrying payload is not even
// looked up — and only steps that did no remote IO fill entries (a pull's
// outcome depends on network state, not just on catalog and store), and
// only steps that did something: a pure forward has no work to replay.
package mqp

import (
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/provenance"
)

// provAction is one provenance visit a cached step recorded, replayed on
// every hit so the signed trail is identical to live processing.
type provAction struct {
	action provenance.Action
	detail string
	stale  int
}

// cacheEntry is one prepared plan. All fields are written once, before the
// entry is published; last is the only mutable field (atomic LRU clock).
type cacheEntry struct {
	// outRoot is the prepared result of stages 1–5: bound, rewritten,
	// materialized and reduced. Shared read-only into every hitting plan.
	outRoot *algebra.Node
	// routes are the forwarding candidates the stages accumulated.
	routes []string
	// actions replays the provenance trail on hits.
	actions []provAction
	// Mutation counters for the Outcome.
	bound, fetched, reduced, rewrites int
	// last is the LRU clock reading of the most recent use.
	last atomic.Int64
}

// planCache maps operator bytes to prepared entries of one generation. A
// lookup takes the read lock for one map probe; the write lock is held for
// inserts and for emptying the map when the generation moves.
type planCache struct {
	capacity int
	tick     atomic.Int64
	hits     atomic.Int64
	misses   atomic.Int64
	evicted  atomic.Int64

	mu sync.RWMutex
	// gen is the generation every entry was prepared under.
	gen     uint64
	entries map[string]*cacheEntry
}

func newPlanCache(capacity int) *planCache {
	return &planCache{capacity: capacity, entries: map[string]*cacheEntry{}}
}

// lookup returns the prepared entry for key at generation gen, or nil on a
// miss. It does not allocate.
func (c *planCache) lookup(key []byte, gen uint64) *cacheEntry {
	c.mu.RLock()
	e, held := c.entries[string(key)], c.gen
	c.mu.RUnlock()
	if held < gen {
		c.mu.Lock()
		c.advanceLocked(gen)
		c.mu.Unlock()
	}
	if e == nil || held != gen {
		c.misses.Add(1)
		return nil
	}
	e.last.Store(c.tick.Add(1))
	c.hits.Add(1)
	return e
}

// advanceLocked empties the cache for a newer generation; the entries it held
// can never hit again.
func (c *planCache) advanceLocked(gen uint64) {
	if gen > c.gen {
		c.gen, c.entries = gen, map[string]*cacheEntry{}
	}
}

// insert publishes an entry prepared under generation gen, with a copy of
// key, evicting the least-recently-used entry when the cache is at capacity.
// An entry prepared under an older generation than the cache holds is
// dropped. The linear LRU scan is fine at the cache sizes in use (hundreds of
// entries) and runs only on insert-at-capacity.
func (c *planCache) insert(key []byte, gen uint64, e *cacheEntry) {
	e.last.Store(c.tick.Add(1))
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen < c.gen {
		return
	}
	c.advanceLocked(gen)
	if _, exists := c.entries[string(key)]; !exists && len(c.entries) >= c.capacity {
		var lruKey string
		lruAt := int64(1)<<62 + (1<<62 - 1)
		for k, v := range c.entries {
			if at := v.last.Load(); at < lruAt {
				lruAt, lruKey = at, k
			}
		}
		delete(c.entries, lruKey)
		c.evicted.Add(1)
	}
	c.entries[string(key)] = e
}

// CacheStats is a snapshot of the prepared-plan cache counters.
type CacheStats struct {
	// Hits and Misses count lookups (misses include lookups that found the
	// generation moved); Evictions counts capacity evictions.
	Hits, Misses, Evictions int64
	// Entries is the current resident entry count.
	Entries int
}

// CacheStats returns the prepared-plan cache counters; zero when the cache
// is disabled.
func (p *Processor) CacheStats() CacheStats {
	if p.cache == nil {
		return CacheStats{}
	}
	c := p.cache
	c.mu.RLock()
	entries := len(c.entries)
	c.mu.RUnlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evicted.Load(),
		Entries:   entries,
	}
}
