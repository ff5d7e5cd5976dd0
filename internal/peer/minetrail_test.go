package peer

import (
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/namespace"
	"repro/internal/provenance"
	"repro/internal/route"
	"repro/internal/simnet"
	"repro/internal/xmltree"
)

var mineSeed = flag.Int64("mine-seed", 1, "seed of TestMineTrailEquivalence's random drive")

// trailPlan is a finished plan addressed to target whose provenance trail
// holds the given visits, signed in order.
func trailPlan(id, target string, visits ...provenance.Visit) *algebra.Plan {
	var t provenance.Trail
	for _, v := range visits {
		t.Append(v, []byte("k"))
	}
	p := algebra.NewPlan(id, target, algebra.Display(algebra.Data()))
	provenance.ToPlan(p, &t)
	return p
}

func bind(server, urn string) provenance.Visit {
	return provenance.Visit{Server: server, Action: provenance.ActionBind, Detail: urn}
}

func learner(t testing.TB) *Peer {
	t.Helper()
	return mustPeer(t, Config{Addr: "L:1", Net: simnet.New(), NS: testNS(), LearnShortcuts: true})
}

// townURN names a town testNS has not loaded: as many distinct table areas as
// a test wants, each generalizing to [USA/OR, Music/CDs] when absorbed.
func townURN(i int) string {
	return fmt.Sprintf("urn:InterestArea:(USA.OR.Town%d,Music.CDs)", i)
}

// TestMineTrailEquivalence holds mineTrail to the one-pass rule. It drives one
// learning peer through 10 000 random steps —
// trails that confirm, re-confirm and cross the threshold, over few enough
// areas that servers replace each other's edges; the catalog and the table
// mutated from outside in every way a peer can hear of; plan clocks that jump
// hours either way — and holds every trail to the one-pass rule. After each
// trail, every edge it confirmed to absorbThreshold is covered by an index
// registration, and the catalog is what a twin that hears the same outside
// mutations makes of it by absorbing exactly those edges: nothing the trail
// did not name moved it. Replay a failure with -mine-seed.
func TestMineTrailEquivalence(t *testing.T) {
	t.Run(fmt.Sprintf("threshold=%d", absorbThreshold), driveMineTrail)
}

func driveMineTrail(t *testing.T) {
	p := learner(t)
	ns := p.ns
	twin := catalog.New(ns, p.addr)
	rng := rand.New(rand.NewSource(*mineSeed))

	servers := []string{p.addr}
	for i := 0; i < 10; i++ {
		servers = append(servers, fmt.Sprintf("s%d:1", i))
	}
	var areas []namespace.Area
	for _, loc := range []string{"*", "USA", "USA/OR", "USA/OR/Portland", "USA/WA/Seattle"} {
		for _, merch := range []string{"*", "Music", "Music/CDs", "Furniture/Chairs"} {
			areas = append(areas, ns.MustParseArea("["+loc+", "+merch+"]"))
		}
	}
	urns := []string{townURN(1), townURN(2), // generalized on absorb
		"urn:InterestArea:(Mars.Olympus,Music.CDs)",      // generalizes to nothing known
		"urn:InterestArea:(", "urn:ForSale:Portland-CDs"} // undecodable; not an area
	for _, a := range areas {
		urns = append(urns, namespace.EncodeURN(a))
	}
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
	actions := []provenance.Action{provenance.ActionBind, provenance.ActionBind,
		provenance.ActionBind, provenance.ActionForward, provenance.ActionData}
	// covered reports whether an index registration of e.Server covers the
	// area e names, as AbsorbLearned generalizes it; ok is false for an area
	// AbsorbLearned refuses.
	covered := func(e route.ShortcutEntry) (cov, ok bool) {
		area, err := namespace.DecodeURN(e.Area)
		if err != nil {
			return false, false
		}
		if ns.Validate(area) != nil {
			area = ns.Generalize(area)
		}
		if area.Empty() {
			return false, false
		}
		for _, r := range p.cat.Registrations() {
			cov = cov || r.Addr == e.Server && r.Role == catalog.RoleIndex && r.Area.Covers(area)
		}
		return cov, true
	}

	var clock time.Duration
	for step := 0; step < 10000; step++ {
		switch r := rng.Intn(100); {
		case r < 80:
			switch rng.Intn(10) {
			case 0:
				clock = time.Duration(rng.Int63n(int64(3 * time.Hour)))
			case 1, 2:
				clock -= time.Duration(rng.Int63n(int64(12 * time.Minute)))
			default:
				clock += time.Duration(rng.Int63n(int64(2 * time.Minute)))
			}
			visits := make([]provenance.Visit, 1+rng.Intn(7))
			var taught []route.ShortcutEntry
			for i := range visits {
				visits[i] = provenance.Visit{Server: pick(servers),
					Action: actions[rng.Intn(len(actions))], Detail: pick(urns)}
				if rng.Intn(4) == 0 { // many servers on one area: edges replace each other
					visits[i].Detail = visits[0].Detail
				}
				e := route.ShortcutEntry{Area: visits[i].Detail, Server: visits[i].Server}
				if visits[i].Action == provenance.ActionBind && e.Server != p.addr &&
					namespace.IsAreaURN(e.Area) && !slices.Contains(taught, e) {
					taught = append(taught, e)
				}
			}
			p.mineTrail(trailPlan(fmt.Sprint("q", step), p.addr, visits...), clock)
			for _, e := range p.shortcuts.Confirmed(absorbThreshold, taught) {
				if cov, ok := covered(e); ok && !cov {
					t.Fatalf("-mine-seed %d, step %d: confirmed edge %s -> %s (%d hits) is in no registration: %+v",
						*mineSeed, step, e.Area, e.Server, e.Hits, p.cat.Registrations())
				}
				_, _ = twin.AbsorbLearned(e.Server, e.Area)
			}
		case r < 85:
			p.shortcuts.Invalidate(pick(servers))
		case r < 90:
			srv := pick(servers)
			p.cat.Deregister(srv)
			twin.Deregister(srv)
		default:
			// A registration heard from outside: a base server superseding
			// another, or an index server's own, which replaces whatever
			// the catalog had learned for it.
			reg := catalog.Registration{Addr: pick(servers), Role: catalog.RoleBase,
				Area: areas[rng.Intn(len(areas))], Supersedes: pick(servers)}
			if r >= 95 {
				reg.Role, reg.Supersedes = catalog.RoleIndex, ""
			}
			if err := p.cat.Register(reg); err != nil {
				t.Fatal(err)
			}
			if err := twin.Register(reg); err != nil {
				t.Fatal(err)
			}
		}
		if gr, wr := p.cat.Registrations(), twin.Registrations(); !reflect.DeepEqual(gr, wr) ||
			p.cat.Generation() != twin.Generation() {
			t.Fatalf("-mine-seed %d, step %d (clock %v): the catalog moved beyond the trail's own absorbs\n got (gen %d): %+v\nwant (gen %d): %+v",
				*mineSeed, step, clock, p.cat.Generation(), gr, twin.Generation(), wr)
		}
	}
	if p.cat.Generation() < 100 {
		t.Fatalf("the drive absorbed almost nothing (generation %d): it tests nothing", p.cat.Generation())
	}
}

// TestMineTrailCountsTrails: an edge's hit count is the number of trails that
// confirmed it. A detour trail (forward, forward, then the bind) confirms its
// edge once, so it takes a second trail to absorb it; a trail that names one
// bind twice still confirms it once.
func TestMineTrailCountsTrails(t *testing.T) {
	p := learner(t)
	at := time.Second
	orCDs := namespace.EncodeURN(p.ns.MustParseArea("[USA/OR, Music/CDs]"))
	waCDs := namespace.EncodeURN(p.ns.MustParseArea("[USA/WA/Seattle, Music/CDs]"))
	hits := func(area, server string) int {
		for _, e := range p.shortcuts.Confirmed(1, []route.ShortcutEntry{{Area: area, Server: server}}) {
			return e.Hits
		}
		return 0
	}
	absorbed := func(server string) bool {
		for _, r := range p.cat.Registrations() {
			if r.Addr == server {
				return true
			}
		}
		return false
	}
	forward := func(server string) provenance.Visit {
		return provenance.Visit{Server: server, Action: provenance.ActionForward}
	}

	detour := trailPlan("detour", p.addr, forward(p.addr), forward("meta:1"), bind("idx:1", orCDs))
	p.mineTrail(detour, at)
	if n := hits(orCDs, "idx:1"); n != 1 || absorbed("idx:1") {
		t.Fatalf("after one detour trail: hits %d, absorbed %v; want 1, false", n, absorbed("idx:1"))
	}
	p.mineTrail(detour, at)
	if n := hits(orCDs, "idx:1"); n != 2 || !absorbed("idx:1") {
		t.Fatalf("after two detour trails: hits %d, absorbed %v; want 2, true", n, absorbed("idx:1"))
	}

	p.mineTrail(trailPlan("twice", p.addr, bind("idx:2", waCDs), forward("meta:1"), bind("idx:2", waCDs)), at)
	if n := hits(waCDs, "idx:2"); n != 1 || absorbed("idx:2") {
		t.Fatalf("after one trail naming a bind twice: hits %d, absorbed %v; want 1, false", n, absorbed("idx:2"))
	}
}

// TestMineTrailCostsWhatItTeaches: with 1000 confirmed edges in the table, a
// mined trail asks the catalog about its own edges and no others, before and
// after someone else's mutation moves the generation.
//
// The 1000 edges are tripwires: put into the table behind mineTrail's back,
// confirmed but not absorbed, each to a server of its own, so an
// AbsorbLearned call on any of them is one more registration and one more
// generation. The count of calls is read off the catalog, not off a counter
// in the code under test.
func TestMineTrailCostsWhatItTeaches(t *testing.T) {
	p := learner(t)
	at := time.Second
	mine := func(visits ...provenance.Visit) (absorbed uint64) {
		before := p.cat.Generation()
		p.mineTrail(trailPlan("q", p.addr, visits...), at)
		return p.cat.Generation() - before
	}
	orCDs := namespace.EncodeURN(p.ns.MustParseArea("[USA/OR, Music/CDs]"))
	waCDs := namespace.EncodeURN(p.ns.MustParseArea("[USA/WA/Seattle, Music/CDs]"))

	// Two trails confirm one real edge; the second absorbs it.
	if n := mine(bind("idx:1", orCDs)) + mine(bind("idx:1", orCDs)); n != 1 {
		t.Fatalf("confirming one edge twice absorbed %d times, want 1", n)
	}
	tripwires := func(from, to int) {
		for i := from; i < to; i++ {
			for hit := 0; hit < 2; hit++ {
				p.shortcuts.Learn(townURN(i), fmt.Sprintf("trip%d:1", i), p.cat.Generation(), at)
			}
		}
	}
	tripwires(0, 1000)
	if st := p.shortcuts.Stats(); st.Entries != 1001 {
		t.Fatalf("table holds %d edges, want 1001", st.Entries)
	}

	// Five visits: one edge re-confirmed over the threshold (already
	// covered), one crossing it now, three new ones below it. One call can
	// land.
	mine(bind("idx:2", waCDs))
	if n := mine(bind("idx:1", orCDs), bind("idx:2", waCDs), bind("idx:3", townURN(5001)),
		bind("idx:4", townURN(5002)), bind("idx:5", townURN(5000))); n != 1 {
		t.Fatalf("a trail with one newly confirmed edge absorbed %d, want 1 (the table's 1000 are not its business)", n)
	}
	if n := mine(bind("idx:1", orCDs), bind("idx:2", waCDs)); n != 0 {
		t.Fatalf("a trail re-confirming covered edges absorbed %d, want 0", n)
	}

	// Someone else's mutation moves the generation. The next trail still
	// hands in only what it teaches: no tripwire fires.
	if err := p.cat.Register(catalog.Registration{Addr: "base:1", Role: catalog.RoleBase,
		Area: p.ns.MustParseArea("[USA/WA/Seattle, Furniture/Chairs]")}); err != nil {
		t.Fatal(err)
	}
	if n := mine(provenance.Visit{Server: "idx:1", Action: provenance.ActionForward}); n != 0 {
		t.Fatalf("the trail after a generation bump absorbed %d, want 0 of the 1000 tripwires", n)
	}
	if n := mine(bind("idx:1", orCDs)); n != 0 {
		t.Fatalf("a trail re-confirming a covered edge after the bump absorbed %d, want 0", n)
	}
}

// TestMineTrailConcurrentWorkers: four workers of one peer mine trails at
// once while registrations arrive and leave. Under -race this is the check
// that workers absorb into the catalog without a lock of their own; the
// assertion is the one-pass rule once things are quiet — one more trail
// re-confirming the table's confirmed edges leaves every one of them covered
// by the catalog, whatever mutations slipped in between.
func TestMineTrailConcurrentWorkers(t *testing.T) {
	const senders, plansEach = 4, 150
	p := learner(t)
	p.rt = newRuntime(p, 4, senders*plansEach) // the queue holds the whole burst
	defer p.Close()
	at := time.Second
	area := p.ns.MustParseArea("[USA/OR/Portland, Music/CDs]")

	var senderWG, mutatorWG sync.WaitGroup
	for s := 0; s < senders; s++ {
		senderWG.Add(1)
		go func(s int) {
			defer senderWG.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < plansEach; i++ {
				plan := trailPlan(fmt.Sprintf("c%d-%d", s, i), p.addr,
					bind(fmt.Sprintf("s%d:1", rng.Intn(6)), townURN(rng.Intn(40))),
					bind(fmt.Sprintf("s%d:1", rng.Intn(6)), townURN(rng.Intn(40))))
				if err := p.net.SendFrame(&simnet.Message{From: "driver:1", To: p.addr, Kind: KindMQP, At: at},
					func(e *xmltree.FrameEncoder) { algebra.EncodeFrame(plan, e) }); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	// Registrations come and go for as long as trails are being mined.
	quiet := make(chan struct{})
	mutatorWG.Add(1)
	go func() {
		defer mutatorWG.Done()
		for i := 0; ; i++ {
			select {
			case <-quiet:
				return
			default:
			}
			srv := fmt.Sprintf("s%d:1", i%6)
			if i%2 == 0 {
				p.cat.Deregister(srv)
			} else if err := p.cat.Register(catalog.Registration{Addr: srv, Role: catalog.RoleIndex, Area: area}); err != nil {
				t.Error(err)
			}
		}
	}()
	senderWG.Wait()
	waitResults(t, p, senders*plansEach)
	close(quiet)
	mutatorWG.Wait()

	var held []route.ShortcutEntry
	for i := 0; i < 40; i++ {
		if srv, ok := p.shortcuts.Lookup(townURN(i), p.cat.Generation(), at); ok {
			held = append(held, route.ShortcutEntry{Area: townURN(i), Server: srv})
		}
	}
	edges := p.shortcuts.Confirmed(absorbThreshold, held)
	if len(edges) == 0 {
		t.Fatal("nothing was confirmed: the test tests nothing")
	}
	var last []provenance.Visit
	for _, e := range edges {
		last = append(last, bind(e.Server, e.Area))
	}
	p.mineTrail(trailPlan("last", p.addr, last...), at)
	want := p.ns.MustParseArea("[USA/OR, Music/CDs]") // what every town generalizes to
	for _, e := range edges {
		covered := false
		for _, r := range p.cat.Registrations() {
			covered = covered || r.Addr == e.Server && r.Role == catalog.RoleIndex && r.Area.Covers(want)
		}
		if !covered {
			t.Fatalf("confirmed edge %s -> %s is in no registration: %+v", e.Area, e.Server, p.cat.Registrations())
		}
	}
}

// BenchmarkMineTrail mines one five-visit signed trail per op into a table of
// 16, 256 and 4096 confirmed edges. The trail re-confirms edges the table
// already holds, the steady state of a warm client, so ns/op is flat across
// the three sizes; when every trail re-absorbed the table it grew with it.
func BenchmarkMineTrail(b *testing.B) {
	for _, size := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("edges=%d", size), func(b *testing.B) {
			p := learner(b)
			at := time.Second
			for i := 0; i < size; i++ {
				plan := trailPlan("warm", p.addr, bind(fmt.Sprintf("s%d:1", i%8), townURN(i)))
				p.mineTrail(plan, at)
				p.mineTrail(plan, at)
			}
			if st := p.shortcuts.Stats(); st.Entries != size {
				b.Fatalf("table holds %d edges, want %d", st.Entries, size)
			}
			var visits []provenance.Visit
			for i := 0; i < 5; i++ {
				visits = append(visits, bind(fmt.Sprintf("s%d:1", i%8), townURN(i)))
			}
			plan := trailPlan("q", p.addr, visits...)
			b.ReportAllocs()
			for b.Loop() {
				p.mineTrail(plan, at)
			}
		})
	}
}
