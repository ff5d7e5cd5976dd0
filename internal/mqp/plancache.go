// Prepared-plan cache: the N1QL-style prepared-statement optimization
// adapted to mutant query plans. A plan's routing-relevant structure is
// digested by algebra.Fingerprint; when a structurally identical plan
// arrives again (the common case under load: many clients issuing the same
// query shape), the bind/rewrite/resolve/reduce stages are skipped and the
// prepared result — an immutable, fully-reduced operator tree with frozen
// payloads — is shared directly into the incoming plan.
//
// Correctness guards, in lookup order:
//
//   - Generation: entries remember the catalog/store mutation epoch they
//     were prepared under; a stale entry is dropped, never served.
//   - Structural equality: Fingerprint is a 64-bit digest, so a matching
//     entry must also compare algebra.Equal to the incoming root before its
//     work is reused — a collision degrades to a miss, never a wrong answer.
//   - Immutability: the prepared root is handed out shared. Processing never
//     mutates it on the hit path (the one exception, last-stop
//     materialization, clones first), so any number of concurrent steps can
//     hold the same entry — the same discipline frozen xmltree payloads
//     already follow.
//
// Only data-free plans are cached (payload-bearing plans would make the
// equality guard as expensive as the work saved) — a plan carrying payload
// is not even looked up, since nothing it could match was ever inserted —
// and only steps that did no remote IO fill entries (a pull's outcome
// depends on network state, not just on catalog and store), and only steps
// that did something: a pure forward has no work to replay.
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
	// inRoot is a private clone of the incoming root the entry was prepared
	// from, compared against lookups to rule out fingerprint collisions.
	inRoot *algebra.Node
	// outRoot is the prepared result of stages 1–5: bound, rewritten,
	// materialized and reduced. Shared read-only into every hitting plan.
	outRoot *algebra.Node
	// routes are the forwarding candidates the stages accumulated.
	routes []string
	// actions replays the provenance trail on hits.
	actions []provAction
	// Mutation counters for the Outcome.
	bound, fetched, reduced, rewrites int
	// gen is the invalidation epoch (Processor.generation) at preparation.
	gen uint64
	// last is the LRU clock reading of the most recent use.
	last atomic.Int64
}

// planCache maps plan fingerprints to prepared entries. Reads take an
// RWMutex read lock plus one structural comparison; the write lock is held
// only for map insert/delete.
type planCache struct {
	capacity int
	tick     atomic.Int64
	hits     atomic.Int64
	misses   atomic.Int64
	evicted  atomic.Int64

	mu      sync.RWMutex
	entries map[uint64]*cacheEntry
}

func newPlanCache(capacity int) *planCache {
	return &planCache{capacity: capacity, entries: make(map[uint64]*cacheEntry, capacity)}
}

// lookup returns the prepared entry for fp, or nil on a miss. gen is the
// current invalidation epoch; root is the incoming plan root the entry must
// structurally equal.
func (c *planCache) lookup(fp uint64, root *algebra.Node, gen uint64) *cacheEntry {
	c.mu.RLock()
	e := c.entries[fp]
	c.mu.RUnlock()
	if e == nil {
		c.misses.Add(1)
		return nil
	}
	if e.gen != gen {
		// Prepared against an older catalog/store; drop it lazily.
		c.mu.Lock()
		if c.entries[fp] == e {
			delete(c.entries, fp)
		}
		c.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	if !algebra.Equal(e.inRoot, root) {
		// Fingerprint collision: same 64-bit digest, different plan. The
		// entry stays (it is still valid for its own plan); this lookup
		// processes live.
		c.misses.Add(1)
		return nil
	}
	e.last.Store(c.tick.Add(1))
	c.hits.Add(1)
	return e
}

// insert publishes a prepared entry, evicting the least-recently-used one
// when the cache is at capacity. The linear LRU scan is fine at the cache
// sizes in use (hundreds of entries) and runs only on insert-at-capacity,
// which a warmed cache hits rarely.
func (c *planCache) insert(fp uint64, e *cacheEntry) {
	e.last.Store(c.tick.Add(1))
	c.mu.Lock()
	if _, exists := c.entries[fp]; !exists && len(c.entries) >= c.capacity {
		var lruFP uint64
		lruAt := int64(1)<<62 + (1<<62 - 1)
		for k, v := range c.entries {
			if at := v.last.Load(); at < lruAt {
				lruAt, lruFP = at, k
			}
		}
		delete(c.entries, lruFP)
		c.evicted.Add(1)
	}
	c.entries[fp] = e
	c.mu.Unlock()
}

// CacheStats is a snapshot of the prepared-plan cache counters.
type CacheStats struct {
	// Hits and Misses count lookups (misses include generation drops and
	// fingerprint collisions); Evictions counts capacity evictions.
	Hits, Misses, Evictions int64
	// Entries is the current resident entry count.
	Entries int
}

// HitRate returns hits/(hits+misses), or 0 with no lookups yet.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
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
