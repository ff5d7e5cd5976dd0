package route

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/algebra"
)

// Learned routing shortcuts (§5.1 meta-index updating): when a completed
// plan's provenance trail comes back, the peers along the way saw exactly
// which server ultimately answered each resource area. Mining those
// (area → server) edges and consulting them ahead of the catalog turns the
// trail from an audit record into routing state — the paper's feedback loop.
//
// Learned state is dangerous in a churning network: the holder of an area
// can crash-leave and be replaced by a replica, at which point a shortcut
// that was perfectly true yesterday misroutes today. Entries therefore
// carry the catalog generation they were learned under and a virtual-time
// stamp, and they expire instead of lingering: a fresh entry lives
// shortcutMaxAge; one whose source generation the local catalog has since
// moved past lives only shortcutStaleAge. Expiry can cost a wasted probe
// hop (the visited-server memory bounds it); it can never produce a wrong
// answer, because a shortcut only adds forwarding candidates — evaluation
// and the oracle invariants are untouched.

// ShortcutEntry is one learned (resource area → server) edge.
type ShortcutEntry struct {
	// Area is the resource area URN the server answered.
	Area string
	// Server is the peer that held the data.
	Server string
	// Hits counts how many trails confirmed this edge.
	Hits int
	// LearnedAt is the virtual time of the most recent confirmation.
	LearnedAt time.Duration
	// Generation is the local catalog generation at the most recent
	// confirmation; entries from an older generation expire on the short
	// TTL because the catalog has changed under them.
	Generation uint64
}

const (
	// shortcutMaxAge is the TTL of a current-generation entry, in virtual
	// time.
	shortcutMaxAge = 30 * time.Minute
	// shortcutStaleAge is the TTL of an entry whose source catalog generation
	// the local catalog has moved past — the staleness discipline replicas
	// use: suspicion, not trust, after churn.
	shortcutStaleAge = 5 * time.Minute
	// shortcutMaxAreas caps the areas the table holds, so trails naming ever
	// new areas cannot grow it without bound. Past the cap, Learn evicts the
	// area whose confirmation is oldest. No chaos, experiment or bench world
	// comes near it.
	shortcutMaxAreas = 1 << 13
)

// ShortcutStats is a snapshot of a table's counters.
type ShortcutStats struct {
	Hits        uint64 // Lookup calls that returned a live edge
	Misses      uint64 // Lookup calls that returned none
	Learned     uint64 // Learn calls (new edges and re-confirmations)
	Expired     uint64 // entries dropped to the area cap or replaced by another server
	Invalidated uint64 // entries dropped by Invalidate
	Entries     int    // edges currently held, one per area
}

// Shortcuts is a concurrent table of learned routing edges, one per area.
// Safe for concurrent Lookup/Candidates during Learn/Invalidate.
type Shortcuts struct {
	mu     sync.RWMutex
	byArea map[string]*ShortcutEntry
	stats  ShortcutStats
}

// NewShortcuts creates an empty table.
func NewShortcuts() *Shortcuts {
	return &Shortcuts{byArea: map[string]*ShortcutEntry{}}
}

// Learn records that server answered the area at virtual time at, under
// catalog generation gen. A re-confirmation by the area's server bumps the
// hit count and refreshes both stamps, so a live edge never ages out while
// the workload keeps proving it right; a different server replaces the edge
// with one hit, counted as Expired. Learn only keeps the table: whoever mined
// the trail hands the edges it taught to Confirmed afterwards, to find the
// ones now solid enough to absorb.
//
// The table keeps its own copies of the strings: callers pass substrings of a
// provenance trail, and a kept substring would pin the whole frame the trail
// was decoded from. A new area copies both, a replacement copies the server,
// and a re-confirmation copies nothing.
func (s *Shortcuts) Learn(area, server string, gen uint64, at time.Duration) {
	if area == "" || server == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Learned++
	if e := s.byArea[area]; e != nil {
		if e.Server != server {
			s.stats.Expired++
			e.Server, e.Hits = strings.Clone(server), 0
		}
		e.Hits++
		e.LearnedAt, e.Generation = at, gen
		return
	}
	if len(s.byArea) >= shortcutMaxAreas {
		// Evict the area whose confirmation is oldest, ties to the smallest
		// name for determinism. The walk is over every area, but only once
		// the table is full and a trail names a new one.
		var victim *ShortcutEntry
		for _, e := range s.byArea {
			if victim == nil || e.LearnedAt < victim.LearnedAt ||
				e.LearnedAt == victim.LearnedAt && e.Area < victim.Area {
				victim = e
			}
		}
		delete(s.byArea, victim.Area)
		s.stats.Expired++
	}
	area = strings.Clone(area)
	s.byArea[area] = &ShortcutEntry{
		Area: area, Server: strings.Clone(server), Hits: 1, LearnedAt: at, Generation: gen,
	}
}

// Lookup returns the area's learned server if its edge is live, and counts
// the hit or miss. An expired edge is never returned; it stays in the table
// until another server replaces it, the area cap evicts it or Invalidate
// drops its server.
func (s *Shortcuts) Lookup(area string, gen uint64, at time.Duration) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.byArea[area]; e != nil {
		ttl := shortcutMaxAge
		if e.Generation != gen {
			ttl = shortcutStaleAge
		}
		if at <= e.LearnedAt+ttl {
			s.stats.Hits++
			return e.Server, true
		}
	}
	s.stats.Misses++
	return "", false
}

// Candidates walks the plan root's unresolved URN leaves and returns the
// live learned servers for their areas, in leaf order, deduplicated, never
// self. The result is meant to be passed to Select as the learned tier —
// consulted ahead of annotations and catalog routes.
func (s *Shortcuts) Candidates(root *algebra.Node, self string, gen uint64, at time.Duration) []string {
	if s == nil {
		return nil
	}
	seen := map[string]bool{self: true, "": true}
	var out []string
	root.Walk(func(m *algebra.Node) bool {
		if m.Kind == algebra.KindURN {
			if srv, ok := s.Lookup(m.URN, gen, at); ok && !seen[srv] {
				seen[srv] = true
				out = append(out, srv)
			}
		}
		return true
	})
	return out
}

// Confirmed returns the entries among the edges one trail just taught (named
// by Area and Server, each once) that hold at least minHits confirmations —
// the edges solid enough to absorb into a real catalog registration so the
// learning survives this peer — ordered by area, then server. Only those
// edges are looked at, so what a trail costs is what it touched. It asks the
// table again instead of trusting the caller's list: a later Learn of the
// same trail may have replaced an edge it taught.
func (s *Shortcuts) Confirmed(minHits int, among []ShortcutEntry) []ShortcutEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ShortcutEntry
	for _, k := range among {
		if e := s.byArea[k.Area]; e != nil && e.Server == k.Server && e.Hits >= minHits {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Area != out[j].Area {
			return out[i].Area < out[j].Area
		}
		return out[i].Server < out[j].Server
	})
	return out
}

// Invalidate drops every edge pointing at server — the peer deregistered,
// was superseded by a replica, or was observed dead. Returns the number of
// edges removed.
func (s *Shortcuts) Invalidate(server string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for area, e := range s.byArea {
		if e.Server == server {
			delete(s.byArea, area)
			removed++
		}
	}
	s.stats.Invalidated += uint64(removed)
	return removed
}

// Stats snapshots the table's counters.
func (s *Shortcuts) Stats() ShortcutStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.Entries = len(s.byArea)
	return st
}
