package route

import (
	"math"
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
	// shortcutMaxPerArea caps the edges kept per area; the lowest-scored
	// entry is evicted first.
	shortcutMaxPerArea = 4
	// shortcutMaxAreas caps the areas the table holds, so trails naming ever
	// new areas cannot grow it without bound. Past the cap, Learn evicts the
	// area whose newest confirmation is oldest. No chaos, experiment or bench
	// world comes near it.
	shortcutMaxAreas = 1 << 13
	// shortcutHalfLife is the decay horizon of an edge's confirmation
	// weight: an entry's score is its hit count discounted by
	// 2^(-(now-LearnedAt)/shortcutHalfLife), so a recently confirmed edge
	// outranks one that piled up hits long ago and then went quiet. Expiry
	// still keeps entries out of answers outright; decay only orders the
	// live ones.
	shortcutHalfLife = 10 * time.Minute
)

// ShortcutStats is a snapshot of a table's counters.
type ShortcutStats struct {
	Hits        uint64 // Lookup calls that returned at least one live edge
	Misses      uint64 // Lookup calls that returned none
	Learned     uint64 // Learn calls (new edges and re-confirmations)
	Expired     uint64 // entries dropped for age or to a cap
	Invalidated uint64 // entries dropped by Invalidate
	Entries     int    // live edges currently held
}

// Shortcuts is a concurrent table of learned routing edges. Safe for
// concurrent Lookup/Candidates during Learn/Invalidate.
type Shortcuts struct {
	mu     sync.RWMutex
	byArea map[string][]*ShortcutEntry
	stats  ShortcutStats
}

// NewShortcuts creates an empty table.
func NewShortcuts() *Shortcuts {
	return &Shortcuts{byArea: map[string][]*ShortcutEntry{}}
}

// Learn records (or re-confirms) that server answered the area at virtual
// time at, under catalog generation gen. Re-confirmation bumps the hit
// count and refreshes both stamps, so a live edge never ages out while the
// workload keeps proving it right. Learn only keeps the table: whoever mined
// the trail hands the edges it taught to Confirmed afterwards, to find the
// ones now solid enough to absorb.
//
// The table keeps its own copies of the strings: callers pass substrings of a
// provenance trail, and a kept substring would pin the whole frame the trail
// was decoded from. The area is copied once per area the table holds and the
// server once per edge; a re-confirmation copies nothing.
func (s *Shortcuts) Learn(area, server string, gen uint64, at time.Duration) {
	if area == "" || server == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Learned++
	entries := s.byArea[area]
	for _, e := range entries {
		if e.Server == server {
			e.Hits++
			e.LearnedAt = at
			e.Generation = gen
			s.sortLocked(entries, at)
			return
		}
	}
	// Assigning under the caller's string would also replace the map's key
	// with it, so an area already held is stored under the held copy.
	if len(entries) > 0 {
		area = entries[0].Area
	} else {
		if len(s.byArea) >= shortcutMaxAreas {
			// Evict the area whose newest confirmation is oldest, ties to the
			// smallest name for determinism. The walk is over every area, but
			// only once the table is full and a trail names a new one.
			victim, newest := "", time.Duration(0)
			for a, es := range s.byArea {
				last := es[0].LearnedAt
				for _, e := range es[1:] {
					last = max(last, e.LearnedAt)
				}
				if victim == "" || last < newest || last == newest && a < victim {
					victim, newest = a, last
				}
			}
			s.stats.Expired += uint64(len(s.byArea[victim]))
			delete(s.byArea, victim)
		}
		area = strings.Clone(area)
	}
	entries = append(entries, &ShortcutEntry{
		Area: area, Server: strings.Clone(server), Hits: 1, LearnedAt: at, Generation: gen,
	})
	s.sortLocked(entries, at)
	if len(entries) > shortcutMaxPerArea {
		entries = entries[:shortcutMaxPerArea]
		s.stats.Expired++
	}
	s.byArea[area] = entries
}

// scoreLocked is an entry's decay-weighted confirmation count at virtual
// time at: Hits discounted by 2^(-(at-LearnedAt)/shortcutHalfLife). Hits on
// a quiet edge lose half their weight every half-life, so routing follows
// where the workload has been answered recently, not just often.
func (s *Shortcuts) scoreLocked(e *ShortcutEntry, at time.Duration) float64 {
	age := at - e.LearnedAt
	if age < 0 {
		age = 0
	}
	return float64(e.Hits) * math.Exp2(-float64(age)/float64(shortcutHalfLife))
}

// sortLocked orders entries best-first at virtual time at: highest decayed
// score, then most recent, then server name for determinism.
func (s *Shortcuts) sortLocked(entries []*ShortcutEntry, at time.Duration) {
	sort.SliceStable(entries, func(i, j int) bool {
		si, sj := s.scoreLocked(entries[i], at), s.scoreLocked(entries[j], at)
		if si != sj {
			return si > sj
		}
		if entries[i].LearnedAt != entries[j].LearnedAt {
			return entries[i].LearnedAt > entries[j].LearnedAt
		}
		return entries[i].Server < entries[j].Server
	})
}

// liveUntilLocked is the last virtual time at which the entry is still
// trustworthy under catalog generation gen.
func (s *Shortcuts) liveUntilLocked(e *ShortcutEntry, gen uint64) time.Duration {
	ttl := shortcutMaxAge
	if e.Generation != gen {
		ttl = shortcutStaleAge
	}
	return e.LearnedAt + ttl
}

// Lookup returns the live learned servers for an area, best-first by
// decayed score AT LOOKUP TIME (stored order is only as fresh as the last
// Learn, and decay keeps shifting the ranking between confirmations), and
// counts the hit or miss. Expired entries are skipped, never returned; they
// stay in the table until Learn evicts them from a full area or Invalidate
// drops their server.
func (s *Shortcuts) Lookup(area string, gen uint64, at time.Duration) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := make([]*ShortcutEntry, 0, len(s.byArea[area]))
	for _, e := range s.byArea[area] {
		if at <= s.liveUntilLocked(e, gen) {
			live = append(live, e)
		}
	}
	s.sortLocked(live, at)
	var out []string
	for _, e := range live {
		out = append(out, e.Server)
	}
	if len(out) > 0 {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	return out
}

// Candidates walks the plan root's unresolved URN leaves and returns the
// live learned servers for their areas, best-first per area, deduplicated,
// never self. The result is meant to be passed to Select as the learned
// tier — consulted ahead of annotations and catalog routes.
func (s *Shortcuts) Candidates(root *algebra.Node, self string, gen uint64, at time.Duration) []string {
	if s == nil {
		return nil
	}
	seen := map[string]bool{self: true, "": true}
	var out []string
	root.Walk(func(m *algebra.Node) bool {
		if m.Kind == algebra.KindURN {
			for _, srv := range s.Lookup(m.URN, gen, at) {
				if !seen[srv] {
					seen[srv] = true
					out = append(out, srv)
				}
			}
		}
		return true
	})
	return out
}

// Confirmed returns the live entries with at least minHits confirmations —
// the edges solid enough to absorb into a real catalog registration so the
// learning survives this peer — ordered by area, then server.
//
// A nil among asks about the whole table: the full pass, O(table), which
// peer.mineTrail makes only when its catalog's generation is not the one its
// last pass ended at. Otherwise among names (by Area and Server), each once,
// the edges one trail just taught, and only those are looked at, so what a
// trail costs is what it touched. Asking again about a just-learned edge
// instead of trusting Learn's moment matters: a later Learn of the same trail
// may have evicted it.
//
// revive is the latest virtual time at which an entry skipped for age alone
// would still have been live (math.MinInt64 when none was skipped). Virtual
// time is per plan and can run backwards between plans; a caller that acts
// once on a full answer and then relies on it must ask again for any
// at <= revive.
func (s *Shortcuts) Confirmed(minHits int, gen uint64, at time.Duration, among []ShortcutEntry) (live []ShortcutEntry, revive time.Duration) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	revive = math.MinInt64
	consider := func(e *ShortcutEntry) {
		if e.Hits < minHits {
			return
		}
		if until := s.liveUntilLocked(e, gen); at <= until {
			live = append(live, *e)
		} else if until > revive {
			revive = until
		}
	}
	if among == nil {
		for _, entries := range s.byArea {
			for _, e := range entries {
				consider(e)
			}
		}
	}
	for _, k := range among {
		for _, e := range s.byArea[k.Area] {
			if e.Server == k.Server {
				consider(e)
			}
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].Area != live[j].Area {
			return live[i].Area < live[j].Area
		}
		return live[i].Server < live[j].Server
	})
	return live, revive
}

// Invalidate drops every edge pointing at server — the peer deregistered,
// was superseded by a replica, or was observed dead. Returns the number of
// edges removed.
func (s *Shortcuts) Invalidate(server string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for area, entries := range s.byArea {
		kept := entries[:0]
		for _, e := range entries {
			if e.Server == server {
				removed++
			} else {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			delete(s.byArea, area)
		} else {
			s.byArea[area] = kept
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
	for _, entries := range s.byArea {
		st.Entries += len(entries)
	}
	return st
}
