package peer

import (
	"sort"
	"sync"
	"sync/atomic"
)

// collStore is the peer's collection store: plan steps read collections on
// every hop (fetchLocal, sizeOf, statsFor), while installs and replication
// refreshes are rare, driver-phase events. One RWMutex guards one map.
//
// An installed *Collection is never mutated in place — SetItems publishes a
// fresh value (RCU-style), so a reader holds its snapshot lock-free after the
// map lookup. The items inside are frozen xmltree subtrees, already safe to
// share.
//
// gen counts publishes; the processor's prepared-plan cache folds it into
// its invalidation epoch, so cached bindings of local data never outlive the
// data they materialized.
type collStore struct {
	gen atomic.Uint64
	mu  sync.RWMutex
	m   map[string]*Collection
}

func newCollStore() *collStore {
	return &collStore{m: map[string]*Collection{}}
}

// get returns the current snapshot of the collection, or nil. The returned
// value is immutable — callers read it without further synchronization.
func (s *collStore) get(pathExp string) *Collection {
	s.mu.RLock()
	c := s.m[pathExp]
	s.mu.RUnlock()
	return c
}

// put publishes a collection snapshot (install or replace) and bumps the
// store generation. The caller hands over ownership: the snapshot must not
// be mutated after publishing.
func (s *collStore) put(c *Collection) {
	s.mu.Lock()
	s.m[c.PathExp] = c
	s.mu.Unlock()
	s.gen.Add(1)
}

// paths returns all collection paths, sorted.
func (s *collStore) paths() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.m))
	for pe := range s.m {
		out = append(out, pe)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// generation returns the publish counter (see collStore doc).
func (s *collStore) generation() uint64 { return s.gen.Load() }
