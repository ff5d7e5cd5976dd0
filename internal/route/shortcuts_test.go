package route

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/algebra"
)

// TestShortcutsLearnLookupOrdering: Lookup answers the server that last
// answered the area. The same server re-confirming its edge bumps its hits; a
// second server answering the area replaces the edge, with one hit, and
// Lookup answers the new server alone.
func TestShortcutsLearnLookupOrdering(t *testing.T) {
	s := NewShortcuts()
	const area = "urn:L:USA/OR"
	s.Learn(area, "idx-OR:9020", 1, 1*time.Minute)
	s.Learn(area, "idx-OR:9020", 1, 2*time.Minute) // re-confirm → 2 hits
	if srv, ok := s.Lookup(area, 1, 3*time.Minute); !ok || srv != "idx-OR:9020" {
		t.Fatalf("lookup = %q, %v; want idx-OR:9020", srv, ok)
	}
	if got := s.Confirmed(1, []ShortcutEntry{{Area: area, Server: "idx-OR:9020"}}); len(got) != 1 || got[0].Hits != 2 {
		t.Fatalf("re-confirmed edge = %+v, want 2 hits", got)
	}

	s.Learn(area, "s7:9020", 1, 4*time.Minute)
	if srv, ok := s.Lookup(area, 1, 5*time.Minute); !ok || srv != "s7:9020" {
		t.Fatalf("lookup = %q, %v; want the replacing server s7:9020", srv, ok)
	}
	got := s.Confirmed(1, []ShortcutEntry{{Area: area, Server: "idx-OR:9020"}, {Area: area, Server: "s7:9020"}})
	if len(got) != 1 || got[0].Server != "s7:9020" || got[0].Hits != 1 || got[0].LearnedAt != 4*time.Minute {
		t.Fatalf("edges = %+v, want s7:9020 alone with 1 hit learned at 4m", got)
	}
	if srv, ok := s.Lookup("urn:L:USA/WA", 1, 5*time.Minute); ok || srv != "" {
		t.Fatalf("unknown area lookup = %q, %v; want none", srv, ok)
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Learned != 3 || st.Entries != 1 || st.Expired != 1 {
		t.Fatalf("stats = %+v, want 1 entry and 1 replacement", st)
	}
}

func TestShortcutsExpiry(t *testing.T) {
	s := NewShortcuts()
	const area = "urn:L:USA/OR"
	s.Learn(area, "idx-OR:9020", 5, 0)

	// Same generation: alive until shortcutMaxAge (30m), gone after.
	if _, ok := s.Lookup(area, 5, 30*time.Minute); !ok {
		t.Fatal("entry expired before shortcutMaxAge")
	}
	if _, ok := s.Lookup(area, 5, 31*time.Minute); ok {
		t.Fatal("entry outlived shortcutMaxAge")
	}

	// Catalog moved on (churn): the short staleness TTL (5m) governs instead.
	if _, ok := s.Lookup(area, 6, 5*time.Minute); !ok {
		t.Fatal("stale-generation entry expired before shortcutStaleAge")
	}
	if _, ok := s.Lookup(area, 6, 6*time.Minute); ok {
		t.Fatal("stale-generation entry outlived shortcutStaleAge")
	}

	// A re-confirmation under the new generation restores the full TTL.
	s.Learn(area, "idx-OR:9020", 6, 7*time.Minute)
	if _, ok := s.Lookup(area, 6, 37*time.Minute); !ok {
		t.Fatal("re-confirmed entry expired early")
	}
	if _, ok := s.Lookup(area, 6, 38*time.Minute); ok {
		t.Fatal("re-confirmed entry outlived shortcutMaxAge")
	}

	// Expiry hides an entry from answers; it does not reap it.
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("entries after expiry = %d, want 1", st.Entries)
	}
}

// TestShortcutsMaxPerArea: an area holds one edge. Five servers answering it
// in turn leave the last one, and each replacement counts as expired.
func TestShortcutsMaxPerArea(t *testing.T) {
	s := NewShortcuts()
	const area = "urn:L:USA"
	for i, srv := range []string{"a:1", "a:1", "b:1", "c:1", "d:1", "e:1"} {
		s.Learn(area, srv, 1, time.Duration(i)*time.Minute)
	}
	if srv, ok := s.Lookup(area, 1, 7*time.Minute); !ok || srv != "e:1" {
		t.Fatalf("lookup = %q, %v; want e:1", srv, ok)
	}
	if st := s.Stats(); st.Entries != 1 || st.Expired != 4 {
		t.Fatalf("stats = %+v, want 1 entry and 4 replacements", st)
	}
}

// TestShortcutCapKeepsLiveEdge: after the catalog generation moves, an edge
// confirmed 20 times is expired at 6 virtual minutes. A new server's live
// edge replaces it, however many hits the old one piled up, so the area keeps
// a live route.
func TestShortcutCapKeepsLiveEdge(t *testing.T) {
	s := NewShortcuts()
	const area = "urn:L:USA"
	for i := 0; i < 20; i++ {
		s.Learn(area, "old:1", 1, 0)
	}
	now := 6 * time.Minute // past shortcutStaleAge for generation-1 edges
	if _, ok := s.Lookup(area, 2, now); ok {
		t.Fatal("the old edge is still live under generation 2")
	}
	s.Learn(area, "new:1", 2, now)
	if srv, ok := s.Lookup(area, 2, now); !ok || srv != "new:1" {
		t.Fatalf("lookup = %q, %v; want the live edge new:1", srv, ok)
	}
}

// TestShortcutTableBounded: trails naming ever new areas cannot grow the table
// past shortcutMaxAreas. The area evicted is the one whose confirmation is
// oldest; replacing an area's server makes no room and takes none.
func TestShortcutTableBounded(t *testing.T) {
	s := NewShortcuts()
	area := func(i int) string { return fmt.Sprintf("urn:L:Town%d", i) }
	ms := func(i int) time.Duration { return time.Duration(i) * time.Millisecond }
	for i := 0; i < shortcutMaxAreas; i++ {
		s.Learn(area(i), "idx:1", 1, ms(i))
	}
	late := ms(shortcutMaxAreas)
	s.Learn(area(0), "idx:1", 1, late) // the oldest area, confirmed again
	s.Learn(area(1), "idx:2", 1, late) // the next oldest, replaced
	if srv, ok := s.Lookup(area(1), 1, late); !ok || srv != "idx:2" {
		t.Fatalf("area 1 = %q, %v; want idx:2", srv, ok)
	}

	s.Learn("urn:L:New", "idx:3", 1, late) // one area past the cap: area 2 goes
	for _, a := range []string{area(0), area(1), area(3), "urn:L:New"} {
		if _, ok := s.Lookup(a, 1, late); !ok {
			t.Fatalf("%s was evicted", a)
		}
	}
	if _, ok := s.Lookup(area(2), 1, late); ok {
		t.Fatal("area 2 is still held, want it evicted")
	}
	if st := s.Stats(); st.Entries != shortcutMaxAreas || st.Expired != 2 {
		t.Fatalf("stats = %+v, want %d entries, 1 replacement and 1 eviction", st, shortcutMaxAreas)
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
	s.Learn("urn:L:USA/CA", "alive:1", 1, 0)
	if n := s.Invalidate("dead:1"); n != 2 {
		t.Fatalf("invalidated %d, want 2", n)
	}
	if srv, ok := s.Lookup("urn:L:USA/OR", 1, 0); ok {
		t.Fatalf("invalidated server still returned: %q", srv)
	}
	if srv, ok := s.Lookup("urn:L:USA/CA", 1, 0); !ok || srv != "alive:1" {
		t.Fatalf("lookup = %q, %v; want alive:1", srv, ok)
	}
	if st := s.Stats(); st.Invalidated != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestShortcutsConfirmed: only the edges named are looked at, each listed
// once it holds minHits confirmations, in (area, server) order.
func TestShortcutsConfirmed(t *testing.T) {
	s := NewShortcuts()
	s.Learn("urn:L:USA/WA", "idx-WA:9020", 1, time.Minute)
	s.Learn("urn:L:USA/WA", "idx-WA:9020", 1, time.Minute)
	s.Learn("urn:L:USA/OR", "idx-OR:9020", 1, 0)
	s.Learn("urn:L:USA/OR", "idx-OR:9020", 1, time.Minute)
	s.Learn("urn:L:USA/ID", "idx-ID:9020", 1, time.Minute) // one hit only
	s.Learn("urn:L:USA/NV", "idx-NV:9020", 1, time.Minute) // confirmed, not named
	s.Learn("urn:L:USA/NV", "idx-NV:9020", 1, time.Minute)
	among := []ShortcutEntry{
		{Area: "urn:L:USA/WA", Server: "idx-WA:9020"},
		{Area: "urn:L:USA/OR", Server: "idx-OR:9020"},
		{Area: "urn:L:USA/ID", Server: "idx-ID:9020"},
		{Area: "urn:L:USA/OR", Server: "nobody:1"},
		{Area: "urn:L:USA/CA", Server: "nobody:1"},
	}
	got := s.Confirmed(2, among)
	if len(got) != 2 || got[0].Server != "idx-OR:9020" || got[1].Server != "idx-WA:9020" ||
		got[0].Hits != 2 || got[1].Hits != 2 {
		t.Fatalf("confirmed = %+v, want the 2-hit OR and WA edges, in area order", got)
	}
	if got := s.Confirmed(2, nil); len(got) != 0 {
		t.Fatalf("confirmed among nothing = %+v", got)
	}
}

// TestShortcutsConfirmedAfterEviction: an edge a trail taught can be gone
// again before the trail is done — replaced within one trail by another
// server for the same area at the same instant — and Confirmed must not
// resurrect it from the caller's list.
func TestShortcutsConfirmedAfterEviction(t *testing.T) {
	s := NewShortcuts()
	var among []ShortcutEntry
	for _, srv := range []string{"z:1", "a:1", "b:1"} {
		s.Learn("urn:L:USA/OR", srv, 1, 0)
		among = append(among, ShortcutEntry{Area: "urn:L:USA/OR", Server: srv})
	}
	got := s.Confirmed(1, among)
	if len(got) != 1 || got[0].Server != "b:1" {
		t.Fatalf("confirmed among = %+v, want b:1 alone (z and a replaced)", got)
	}
}

// TestShortcutsCandidates: URN leaves of the plan drive lookups; duplicates
// and self are dropped; a nil table is inert.
func TestShortcutsCandidates(t *testing.T) {
	s := NewShortcuts()
	s.Learn("urn:L:USA/OR", "idx-OR:9020", 1, 0)
	s.Learn("urn:L:USA/WA", "idx-OR:9020", 1, 0) // dup server across areas
	s.Learn("urn:L:USA/ID", "self:9020", 1, 0)   // self must be dropped
	root := algebra.Display(algebra.Union(
		algebra.URN("urn:L:USA/OR"),
		algebra.URN("urn:L:USA/WA"),
		algebra.URN("urn:L:USA/ID"),
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
					s.Confirmed(2, []ShortcutEntry{{Area: "urn:L:USA/WA", Server: fmt.Sprintf("s%d:1", i%8)}})
					s.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestShortcutsOwnTheirStrings: Learn is handed substrings of a provenance
// trail, which alias the frame the trail was decoded from. The table keeps
// copies — one per area, shared by the map key and the area's edge, and one
// per server — so no learned edge pins the frame it was mined from.
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
	for i, srv := range []string{sub(at+len(area), len(s1)), sub(at+len(area), len(s1)), sub(at+len(area)+len(s1), len(s2))} {
		s.Learn(sub(at, len(area)), srv, 1, time.Duration(i)*time.Second) // learn, re-confirm, replace
		if len(s.byArea) != 1 {
			t.Fatalf("table = %v, want one area", s.byArea)
		}
		for key, e := range s.byArea {
			if inFrame(key) || inFrame(e.Area) || inFrame(e.Server) {
				t.Errorf("step %d: edge %s → %s points into the frame", i, e.Area, e.Server)
			}
			if unsafe.StringData(e.Area) != unsafe.StringData(key) {
				t.Errorf("step %d: edge %s → %s holds its own copy of the area", i, e.Area, e.Server)
			}
		}
	}
	got := s.Confirmed(1, []ShortcutEntry{{Area: area, Server: s2}})
	if len(got) != 1 || got[0].Server != s2 || got[0].Hits != 1 {
		t.Fatalf("confirmed = %+v", got)
	}
}
