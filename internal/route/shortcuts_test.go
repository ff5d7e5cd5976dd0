package route

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/algebra"
)

func TestShortcutsLearnLookupOrdering(t *testing.T) {
	s := NewShortcuts()
	const area = "urn:L:USA/OR"
	s.Learn(area, "idx-OR:9020", 1, 1*time.Minute)
	s.Learn(area, "s7:9020", 1, 2*time.Minute)
	s.Learn(area, "idx-OR:9020", 1, 3*time.Minute) // re-confirm → 2 hits

	got := s.Lookup(area, 1, 4*time.Minute)
	if len(got) != 2 || got[0] != "idx-OR:9020" || got[1] != "s7:9020" {
		t.Fatalf("lookup = %v, want [idx-OR:9020 s7:9020] (hits desc)", got)
	}
	if got := s.Lookup("urn:L:USA/WA", 1, 4*time.Minute); got != nil {
		t.Fatalf("unknown area lookup = %v, want nil", got)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Learned != 3 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShortcutsExpiry(t *testing.T) {
	s := NewShortcuts()
	const area = "urn:L:USA/OR"
	s.Learn(area, "idx-OR:9020", 5, 0)

	// Same generation: alive until shortcutMaxAge (30m), gone after.
	if got := s.Lookup(area, 5, 30*time.Minute); len(got) != 1 {
		t.Fatalf("entry expired before shortcutMaxAge: %v", got)
	}
	if got := s.Lookup(area, 5, 31*time.Minute); got != nil {
		t.Fatalf("entry outlived shortcutMaxAge: %v", got)
	}

	// Catalog moved on (churn): the short staleness TTL (5m) governs instead.
	if got := s.Lookup(area, 6, 5*time.Minute); len(got) != 1 {
		t.Fatalf("stale-generation entry expired before shortcutStaleAge: %v", got)
	}
	if got := s.Lookup(area, 6, 6*time.Minute); got != nil {
		t.Fatalf("stale-generation entry outlived shortcutStaleAge: %v", got)
	}

	// A re-confirmation under the new generation restores the full TTL.
	s.Learn(area, "idx-OR:9020", 6, 7*time.Minute)
	if got := s.Lookup(area, 6, 37*time.Minute); len(got) != 1 {
		t.Fatalf("re-confirmed entry expired early: %v", got)
	}
	if got := s.Lookup(area, 6, 38*time.Minute); got != nil {
		t.Fatalf("re-confirmed entry outlived shortcutMaxAge: %v", got)
	}

	// Expiry hides an entry from answers; it does not reap it.
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("entries after expiry = %d, want 1", st.Entries)
	}
}

func TestShortcutsMaxPerArea(t *testing.T) {
	s := NewShortcuts()
	const area = "urn:L:USA"
	s.Learn(area, "a:1", 1, 1*time.Minute)
	s.Learn(area, "a:1", 1, 2*time.Minute)
	s.Learn(area, "b:1", 1, 3*time.Minute)
	s.Learn(area, "c:1", 1, 4*time.Minute)
	s.Learn(area, "d:1", 1, 5*time.Minute)
	s.Learn(area, "e:1", 1, 6*time.Minute) // over shortcutMaxPerArea: evicts the lowest-scored, b
	got := s.Lookup(area, 1, 7*time.Minute)
	if len(got) != shortcutMaxPerArea || got[0] != "a:1" || slices.Contains(got, "b:1") {
		t.Fatalf("lookup = %v, want %d entries led by a:1, without b:1", got, shortcutMaxPerArea)
	}
	if st := s.Stats(); st.Entries != shortcutMaxPerArea || st.Expired != 1 {
		t.Fatalf("stats = %+v, want %d entries and 1 eviction", st, shortcutMaxPerArea)
	}
}

// TestShortcutTableBounded: trails naming ever new areas cannot grow the table
// past shortcutMaxAreas. The area evicted is the one whose newest confirmation
// is oldest, which need not be its best-scored edge's.
func TestShortcutTableBounded(t *testing.T) {
	s := NewShortcuts()
	area := func(i int) string { return fmt.Sprintf("urn:L:Town%d", i) }
	ms := func(i int) time.Duration { return time.Duration(i) * time.Millisecond }
	for i := 0; i < shortcutMaxAreas; i++ {
		s.Learn(area(i), "idx:1", 1, ms(i))
	}
	late := ms(shortcutMaxAreas)
	s.Learn(area(0), "idx:1", 1, late) // the oldest area, confirmed again
	// Area 1's old edge outscores its new one, so it sorts first.
	s.Learn(area(1), "idx:1", 1, ms(1))
	s.Learn(area(1), "idx:1", 1, ms(1))
	s.Learn(area(1), "idx:2", 1, late)
	if got := s.Lookup(area(1), 1, late); len(got) != 2 || got[0] != "idx:1" {
		t.Fatalf("area 1 = %v, want idx:1 ahead of idx:2", got)
	}

	s.Learn("urn:L:New", "idx:3", 1, late) // one area past the cap: area 2 goes
	for _, a := range []string{area(0), area(1), area(3), "urn:L:New"} {
		if got := s.Lookup(a, 1, late); len(got) == 0 {
			t.Fatalf("%s was evicted", a)
		}
	}
	if got := s.Lookup(area(2), 1, late); len(got) != 0 {
		t.Fatalf("area 2 = %v, want it evicted", got)
	}
	if st := s.Stats(); st.Entries != shortcutMaxAreas+1 || st.Expired != 1 {
		t.Fatalf("stats = %+v, want %d entries and 1 eviction", st, shortcutMaxAreas+1)
	}
	for i := 0; i < 100; i++ {
		s.Learn(fmt.Sprintf("urn:L:More%d", i), "idx:4", 1, late+ms(i))
	}
	if n := len(s.byArea); n != shortcutMaxAreas {
		t.Fatalf("table holds %d areas, want the cap %d", n, shortcutMaxAreas)
	}
}

func TestShortcutsInvalidate(t *testing.T) {
	s := NewShortcuts()
	s.Learn("urn:L:USA/OR", "dead:1", 1, 0)
	s.Learn("urn:L:USA/WA", "dead:1", 1, 0)
	s.Learn("urn:L:USA/WA", "alive:1", 1, 0)
	if n := s.Invalidate("dead:1"); n != 2 {
		t.Fatalf("invalidated %d, want 2", n)
	}
	if got := s.Lookup("urn:L:USA/OR", 1, 0); got != nil {
		t.Fatalf("invalidated server still returned: %v", got)
	}
	if got := s.Lookup("urn:L:USA/WA", 1, 0); len(got) != 1 || got[0] != "alive:1" {
		t.Fatalf("lookup = %v, want [alive:1]", got)
	}
	if st := s.Stats(); st.Invalidated != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShortcutsConfirmed(t *testing.T) {
	s := NewShortcuts()
	s.Learn("urn:L:USA/OR", "idx-OR:9020", 1, 0)
	s.Learn("urn:L:USA/OR", "idx-OR:9020", 1, time.Minute)
	s.Learn("urn:L:USA/WA", "idx-WA:9020", 1, time.Minute)
	got, revive := s.Confirmed(2, 1, 2*time.Minute, nil)
	if len(got) != 1 || got[0].Server != "idx-OR:9020" || got[0].Hits != 2 {
		t.Fatalf("confirmed = %+v, want the 2-hit OR edge only", got)
	}
	if revive != math.MinInt64 {
		t.Fatalf("revive = %v with nothing skipped for age", revive)
	}

	// Restricted to the edges a trail names: the same filter and order,
	// nothing else looked at.
	s.Learn("urn:L:USA/WA", "idx-WA:9020", 1, time.Minute)
	among := []ShortcutEntry{
		{Area: "urn:L:USA/WA", Server: "idx-WA:9020"},
		{Area: "urn:L:USA/CA", Server: "nobody:1"},
	}
	got, _ = s.Confirmed(2, 1, 2*time.Minute, among)
	if len(got) != 1 || got[0].Server != "idx-WA:9020" || got[0].Hits != 2 {
		t.Fatalf("confirmed among = %+v, want the WA edge", got)
	}
	if got, _ := s.Confirmed(2, 1, 2*time.Minute, []ShortcutEntry{}); len(got) != 0 {
		t.Fatalf("confirmed among nothing = %+v", got)
	}

	// A confirmed edge too old to list is reported through revive: at or
	// before that clock it would be listed again. Under generation 2 both
	// edges are on the stale TTL, last live at 1m + 5m.
	got, revive = s.Confirmed(2, 2, 7*time.Minute, nil)
	if len(got) != 0 || revive != 6*time.Minute {
		t.Fatalf("confirmed = %+v, revive = %v; want none, 6m", got, revive)
	}
	if got, _ := s.Confirmed(2, 2, revive, nil); len(got) != 2 {
		t.Fatalf("confirmed at revive = %+v, want both edges back", got)
	}
}

// TestShortcutsConfirmedAfterEviction: an edge a trail taught can be gone
// again before the trail is done — a fifth server for the same area at the
// same instant evicts the one that sorts last — and Confirmed must not
// resurrect it from the caller's list.
func TestShortcutsConfirmedAfterEviction(t *testing.T) {
	s := NewShortcuts()
	var among []ShortcutEntry
	for _, srv := range []string{"z:1", "a:1", "b:1", "c:1", "d:1"} {
		s.Learn("urn:L:USA/OR", srv, 1, 0)
		among = append(among, ShortcutEntry{Area: "urn:L:USA/OR", Server: srv})
	}
	got, _ := s.Confirmed(1, 1, 0, among)
	if len(got) != 4 || got[3].Server != "d:1" {
		t.Fatalf("confirmed among = %+v, want a,b,c,d (z evicted)", got)
	}
}

// TestShortcutsCandidates: URN leaves of the plan drive lookups; duplicates
// and self are dropped; a nil table is inert.
func TestShortcutsCandidates(t *testing.T) {
	s := NewShortcuts()
	s.Learn("urn:L:USA/OR", "idx-OR:9020", 1, 0)
	s.Learn("urn:L:USA/WA", "idx-OR:9020", 1, 0) // dup server across areas
	s.Learn("urn:L:USA/WA", "self:9020", 1, 0)   // self must be dropped
	root := algebra.Display(algebra.Union(
		algebra.URN("urn:L:USA/OR"),
		algebra.URN("urn:L:USA/WA"),
		algebra.URN("urn:L:USA/CA"), // no shortcut
	))
	got := s.Candidates(root, "self:9020", 1, 0)
	if len(got) != 1 || got[0] != "idx-OR:9020" {
		t.Fatalf("candidates = %v, want [idx-OR:9020]", got)
	}
	var nilTable *Shortcuts
	if got := nilTable.Candidates(root, "self:9020", 1, 0); got != nil {
		t.Fatalf("nil table candidates = %v, want nil", got)
	}
}

// TestSelectLearnedTierFirst: learned shortcuts outrank route annotations,
// catalog routes and URL owners — and an empty learned tier leaves the
// decision identical to a call without the argument (the byte-identity
// guarantee for builds with learning disabled).
func TestSelectLearnedTierFirst(t *testing.T) {
	p := urlPlan("client:1", "url1:1")
	dec := Select(p, "self:1", []string{"cat:1"}, "learned:1")
	if dec.Reason != Forward || len(dec.Hops) != 3 || dec.Hops[0] != "learned:1" {
		t.Fatalf("decision = %+v, want learned:1 first of 3", dec)
	}
	p2 := urlPlan("client:1", "url1:1")
	with := Select(p2, "self:1", []string{"cat:1"})
	without := Select(p2, "self:1", []string{"cat:1"}, []string{}...)
	if fmt.Sprint(with) != fmt.Sprint(without) {
		t.Fatalf("empty learned tier changed the decision: %+v vs %+v", with, without)
	}
}

// TestShortcutsConcurrent exercises concurrent readers during mining and
// invalidation; run under -race (make race does).
func TestShortcutsConcurrent(t *testing.T) {
	s := NewShortcuts()
	root := algebra.Display(algebra.Union(
		algebra.URN("urn:L:USA/OR"), algebra.URN("urn:L:USA/WA")))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				at := time.Duration(i) * time.Second
				switch w {
				case 0:
					s.Learn("urn:L:USA/OR", fmt.Sprintf("s%d:1", i%8), uint64(i%3), at)
				case 1:
					s.Learn("urn:L:USA/WA", fmt.Sprintf("s%d:1", i%8), uint64(i%3), at)
					if i%50 == 0 {
						s.Invalidate(fmt.Sprintf("s%d:1", i%8))
					}
				case 2:
					s.Lookup("urn:L:USA/OR", uint64(i%3), at)
					s.Candidates(root, "self:1", uint64(i%3), at)
				case 3:
					s.Confirmed(2, uint64(i%3), at, nil)
					s.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestShortcutsDecayOrdering pins the decay-weighted ranking: an edge that
// piled up hits long ago and went quiet is outranked by a recently
// confirmed edge with fewer hits, both at Learn-time re-sorting and at
// Lookup time as decay keeps shifting the balance between confirmations.
func TestShortcutsDecayOrdering(t *testing.T) {
	s := NewShortcuts() // shortcutHalfLife 10m; every lookup below is inside shortcutMaxAge
	const area = "urn:L:USA/OR"
	// old:1 earns 10 confirmations in the first minute; new:1 earns 3
	// around the 29-minute mark.
	for i := 0; i < 10; i++ {
		s.Learn(area, "old:1", 1, 1*time.Minute)
	}
	for i := 0; i < 3; i++ {
		s.Learn(area, "new:1", 1, 29*time.Minute)
	}

	// Immediately after the burst both raw orderings agree (3 fresh hits
	// beat 10 decayed to 10×2^-2.8 ≈ 1.4).
	if got := s.Lookup(area, 1, 30*time.Minute); got[0] != "new:1" {
		t.Fatalf("at 30m lookup = %v, want new:1 first (recent confirmations outrank stale bulk)", got)
	}

	// The same table, read shortly after the old edge's burst, ranks the
	// other way — 9 minutes in, old:1 still scores 10×2^-0.8 ≈ 5.7 against
	// a not-yet-confirmed new:1 (score 0 hits... it has 3 hits learned at
	// 29m, in the future relative to 9m: future stamps clamp to age 0, so
	// 3). Decay is a function of the lookup clock, not of table state.
	if got := s.Lookup(area, 1, 9*time.Minute); got[0] != "old:1" {
		t.Fatalf("at 9m lookup = %v, want old:1 first", got)
	}

	// One fresh confirmation for the quiet edge restores it: 11 hits
	// re-stamped now beats 3 hits a half-life old.
	s.Learn(area, "old:1", 1, 40*time.Minute)
	if got := s.Lookup(area, 1, 40*time.Minute); got[0] != "old:1" {
		t.Fatalf("after re-confirmation lookup = %v, want old:1 first", got)
	}
}

// TestShortcutsDecayEviction: with decay, shortcutMaxPerArea eviction drops
// the stalest edge, not the newest — a table full of dead weight makes room
// for the edge the workload is proving right now.
func TestShortcutsDecayEviction(t *testing.T) {
	s := NewShortcuts()
	const area = "urn:L:USA"
	for i := 0; i < 8; i++ {
		s.Learn(area, "stale:1", 1, 0) // 8 hits, ancient
	}
	s.Learn(area, "w1:1", 1, 57*time.Minute)
	s.Learn(area, "w2:1", 1, 58*time.Minute)
	s.Learn(area, "w3:1", 1, 59*time.Minute)
	s.Learn(area, "fresh:1", 1, 60*time.Minute) // table over cap: stale:1 scores 8×2^-6 = 0.125 and is evicted
	got := s.Lookup(area, 1, 60*time.Minute)
	if len(got) != 4 || got[0] != "fresh:1" || got[1] != "w3:1" || got[2] != "w2:1" || got[3] != "w1:1" {
		t.Fatalf("lookup = %v, want [fresh:1 w3:1 w2:1 w1:1]", got)
	}
	// stale:1 left the table rather than merely expiring out of answers.
	if st := s.Stats(); st.Entries != 4 {
		t.Fatalf("entries = %d, want 4 with stale:1 evicted", st.Entries)
	}
}

// TestShortcutsOwnTheirStrings: Learn is handed substrings of a provenance
// trail, which alias the frame the trail was decoded from. The table keeps
// copies — one per area, shared by the map key and every edge of the area,
// and one per server — so no learned edge pins the frame it was mined from.
func TestShortcutsOwnTheirStrings(t *testing.T) {
	const area, s1, s2 = "urn:InterestArea:(USA.OR.Portland,Music.CDs)", "s1:9020", "s2:9020"
	frame := strings.Repeat("<visit/>", 8) + area + s1 + s2 + strings.Repeat("<visit/>", 8)
	at := strings.Index(frame, area)
	sub := func(i, n int) string { return frame[i : i+n] }
	inFrame := func(s string) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(frame)))
		return p >= lo && p < lo+uintptr(len(frame))
	}

	s := NewShortcuts()
	s.Learn(sub(at, len(area)), sub(at+len(area), len(s1)), 1, 0)
	s.Learn(sub(at, len(area)), sub(at+len(area)+len(s1), len(s2)), 1, time.Second)
	s.Learn(sub(at, len(area)), sub(at+len(area), len(s1)), 1, 2*time.Second) // re-confirmation

	if len(s.byArea) != 1 || len(s.byArea[area]) != 2 {
		t.Fatalf("table = %v, want one area with two edges", s.byArea)
	}
	for key, entries := range s.byArea {
		if inFrame(key) {
			t.Error("the table's key for the area points into the frame")
		}
		for _, e := range entries {
			if inFrame(e.Area) || inFrame(e.Server) {
				t.Errorf("edge %s → %s points into the frame", e.Area, e.Server)
			}
			if unsafe.StringData(e.Area) != unsafe.StringData(key) {
				t.Errorf("edge %s → %s holds its own copy of the area", e.Area, e.Server)
			}
		}
	}
	live, _ := s.Confirmed(1, 1, 2*time.Second, nil)
	if len(live) != 2 || live[0].Server != s1 || live[1].Server != s2 {
		t.Fatalf("confirmed = %+v", live)
	}
}
