package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/peer"
	"repro/internal/xmltree"
)

var update = flag.Bool("update", false, "rewrite the tables golden file from this run")

// TestAllExperimentsRun executes every experiment end to end; each Run
// already contains its own shape assertions (who wins, crossovers, recall)
// and fails loudly when the paper's qualitative claims do not hold.
// Experiments are independent (own network, own seeded workload), so the
// subtests run in parallel. Once they are done, every table rendered is
// compared with its golden copy, testdata/tables.golden or, under -short,
// testdata/tables-short.golden: what cmd/experiments prints, in the same
// mode. A change that moves a byte of E1–E16 fails here; regenerate on
// purpose with
//
//	go test ./internal/experiments -run TestAllExperimentsRun -update
//	go test ./internal/experiments -run TestAllExperimentsRun -short -update
func TestAllExperimentsRun(t *testing.T) {
	runners := All(testing.Short())
	tables := make([]string, len(runners))
	t.Cleanup(func() { checkGolden(t, runners, tables) })
	for i, r := range runners {
		i, r := i, r
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			tab, err := r.Run()
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: no rows", r.ID)
			}
			out := tab.Render()
			if !strings.Contains(out, r.ID) {
				t.Fatalf("%s: render missing id:\n%s", r.ID, out)
			}
			tables[i] = out
		})
	}
}

// checkGolden compares the tables that rendered ("" for one that failed or
// did not run) with the golden file of the current mode, or rewrites it under
// -update, which needs all of them.
func checkGolden(t *testing.T, runners []Runner, tables []string) {
	path := filepath.Join("testdata", "tables.golden")
	if testing.Short() {
		path = filepath.Join("testdata", "tables-short.golden")
	}
	if *update {
		var b strings.Builder
		for i, tab := range tables {
			if tab == "" {
				t.Errorf("-update needs every table; %s did not render", runners[i].ID)
				return
			}
			b.WriteString(tab + "\n") // as cmd/experiments prints it
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Error(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("%v (regenerate with -update)", err)
		return
	}
	want := map[string]string{}
	for _, tab := range strings.SplitAfter(string(raw), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(tab, "== "), ":")
		want[id] = strings.TrimSuffix(tab, "\n")
	}
	for i, got := range tables {
		if id := runners[i].ID; got != "" && got != want[id] {
			t.Errorf("%s differs from %s:\n--- got\n%s--- want\n%s", id, path, got, want[id])
		}
	}
}

// TestRunAllMatchesSequential checks that the parallel runner produces
// exactly the tables a sequential run produces, in runner order — the
// determinism the paper-style output depends on.
func TestRunAllMatchesSequential(t *testing.T) {
	runners := All(testing.Short())[:4]
	seq := make([]string, len(runners))
	for i, r := range runners {
		tab, err := r.Run()
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		seq[i] = tab.Render()
	}
	par := RunAll(runners, 4)
	if len(par) != len(runners) {
		t.Fatalf("RunAll returned %d results, want %d", len(par), len(runners))
	}
	for i, res := range par {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Runner.ID, res.Err)
		}
		if res.Runner.ID != runners[i].ID {
			t.Fatalf("result %d out of order: got %s want %s", i, res.Runner.ID, runners[i].ID)
		}
		if got := res.Table.Render(); got != seq[i] {
			t.Errorf("%s: parallel table differs from sequential:\n--- parallel\n%s\n--- sequential\n%s", res.Runner.ID, got, seq[i])
		}
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Columns: []string{"a", "longcol"}}
	tab.AddRow("xxxxxx", 1)
	tab.AddRow(2.5, "y")
	tab.Note("hello %d", 7)
	out := tab.Render()
	for _, want := range []string{"== T: demo ==", "xxxxxx", "2.50", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header and separator must be same width.
	if len(lines) < 3 || len(lines[1]) != len(lines[2]) {
		t.Fatalf("alignment broken:\n%s", out)
	}
}

func TestRunnersDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range All(testing.Short()) {
		if seen[r.ID] {
			t.Fatalf("duplicate experiment id %s", r.ID)
		}
		seen[r.ID] = true
		if r.Run == nil || r.Name == "" {
			t.Fatalf("experiment %s incomplete", r.ID)
		}
	}
	if len(seen) != 16 {
		t.Fatalf("expected 16 experiments, have %d", len(seen))
	}
}

// liveHeap is the heap in use after a collection (two: what a sync.Pool
// held before the first is freed by the second), with the identical-frame
// cache emptied and left on: what the worlds themselves hold.
func liveHeap() uint64 {
	xmltree.SetFrameCacheLimit(xmltree.SetFrameCacheLimit(0))
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestPayloadStoreShrinksLiveHeap holds E16's world to the one bar E16 does
// not: resident memory. Three sellers' 48 items over 8 distinct documents
// must cost a world whose peers carry stores at least 30% less live heap,
// for the same answers, with freight going by reference only when there is
// a store and no fetch failing.
func TestPayloadStoreShrinksLiveHeap(t *testing.T) {
	run := func(storeOn bool) (heap uint64, answer string, byRefBytes int64, fetchFails uint64) {
		before := liveHeap()
		net, client, err := e16World(3, 48, 8, storeOn)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 2; q++ {
			plan := algebra.NewPlan(fmt.Sprintf("heap-%d", q), "client:9020",
				algebra.Display(algebra.Select(algebra.MustParsePredicate("price < 10"),
					algebra.URN("urn:ForSale:Portland-CDs"))))
			if err := client.Submit("meta:9020", plan); err != nil {
				t.Fatal(err)
			}
			res, ok := client.TakeResult()
			if !ok {
				t.Fatalf("store %v, query %d: no result", storeOn, q)
			}
			docs, err := res.Plan.Results()
			if err != nil || len(docs) == 0 {
				t.Fatalf("store %v, query %d: %d results, %v", storeOn, q, len(docs), err)
			}
			answer = fmt.Sprint(docs)
		}
		if after := liveHeap(); after > before {
			heap = after - before
		}
		for _, addr := range net.Addrs() { // which also keeps the world alive until here
			st := net.Peer(addr).(*peer.Peer).BlobNetStats()
			byRefBytes += st.ByRefBytes
			fetchFails += st.FetchFailures
		}
		return
	}
	offHeap, offAnswer, offByRef, _ := run(false)
	onHeap, onAnswer, onByRef, fetchFails := run(true)
	if offAnswer != onAnswer {
		t.Fatalf("the store changed the answer:\n%s\n%s", offAnswer, onAnswer)
	}
	if offByRef != 0 || onByRef == 0 || fetchFails != 0 {
		t.Fatalf("by-reference bytes %d without stores, %d with; %d fetch failures", offByRef, onByRef, fetchFails)
	}
	t.Logf("live heap: %d KB without stores, %d KB with", offHeap>>10, onHeap>>10)
	if float64(onHeap) > 0.7*float64(offHeap) {
		t.Fatalf("live heap %d KB with stores, %d KB without: less than 30%% saved", onHeap>>10, offHeap>>10)
	}
}
