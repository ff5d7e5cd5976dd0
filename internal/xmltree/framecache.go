// Identical-frame decode cache.
//
// Peers re-decode byte-identical frames all the time: a forwarding fan-out
// serializes a plan once and every fallback candidate receives the same
// bytes, duplicated deliveries re-present a frame the receiver already
// parsed, and closed-loop clients resubmit equal documents. Because decoder
// output is born frozen, the tree built from one such frame can be handed to
// every later decode of the same bytes — aliasing immutable subtrees is the
// package's core ownership rule. The cache makes that reuse automatic: a
// decode whose input hashes to a known frame and byte-compares equal to it
// returns the memoized tree in ~hash+memcmp time instead of re-materializing
// hundreds of nodes.
//
// Only provably canonical frames are inserted (the root's clean span must
// cover the entire input, see finishSpan), so a hit is indistinguishable
// from a fresh decode up to node identity. Entries pin their frame bytes;
// the cache is bounded by total bytes with FIFO eviction, and hash
// collisions are resolved by the byte compare — a mismatch is just a miss.
package xmltree

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// DefaultFrameCacheBytes is the startup bound on decoded-frame bytes the
// cache may pin. SetFrameCacheLimit adjusts or disables it.
const DefaultFrameCacheBytes = 4 << 20

var frameCache = struct {
	mu    sync.Mutex
	seed  maphash.Seed
	m     map[uint64]*Node
	fifo  []uint64
	bytes int
	// limit is written under mu and read without it by frameCacheGet, so a
	// decode with the cache off neither hashes its frame nor takes the lock.
	limit atomic.Int64
}{
	seed: maphash.MakeSeed(),
	m:    map[uint64]*Node{},
}

func init() { frameCache.limit.Store(DefaultFrameCacheBytes) }

// SetFrameCacheLimit sets the byte bound of the identical-frame cache,
// flushes all current entries, and returns the previous bound. A limit of 0
// disables caching (benchmarks measuring the cold decode path use this).
func SetFrameCacheLimit(limit int) int {
	c := &frameCache
	c.mu.Lock()
	defer c.mu.Unlock()
	old := int(c.limit.Swap(int64(limit)))
	clear(c.m)
	c.fifo = c.fifo[:0]
	c.bytes = 0
	return old
}

// frameCacheGet looks s up and returns its hash for the frameCachePut that
// follows a miss, so a frame is hashed once; on is false, and nothing was
// hashed or locked, when the cache is off or the frame is empty.
func frameCacheGet(s string) (hit *Node, h uint64, on bool) {
	c := &frameCache
	if len(s) == 0 || c.limit.Load() == 0 {
		return nil, 0, false
	}
	h = maphash.String(c.seed, s)
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.m[h]; ok && n.memoStr == s {
		return n, h, true
	}
	return nil, h, true
}

func frameCachePut(h uint64, s string, root *Node) {
	c := &frameCache
	c.mu.Lock()
	defer c.mu.Unlock()
	limit := int(c.limit.Load())
	// Oversized frames would evict everything for one entry's benefit.
	if len(s) > limit/2 {
		return
	}
	if old, ok := c.m[h]; ok {
		if old.memoStr == s {
			return
		}
		// Hash collision: newest wins, reusing the existing FIFO slot.
		c.bytes += len(s) - len(old.memoStr)
		c.m[h] = root
		return
	}
	for c.bytes+len(s) > limit && len(c.fifo) > 0 {
		k := c.fifo[0]
		c.fifo = c.fifo[1:]
		if e, ok := c.m[k]; ok {
			c.bytes -= len(e.memoStr)
			delete(c.m, k)
		}
	}
	c.m[h] = root
	c.fifo = append(c.fifo, h)
	c.bytes += len(s)
}
