package chaos

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// Regenerate testdata/outcomes.golden from the current build with
//
//	go test ./internal/chaos -run TestSweepOutcomesPinned -update
//
// and commit it only when a change is meant to move chaos outcomes.
var update = flag.Bool("update", false, "rewrite testdata/outcomes.golden from this build")

const goldenPath = "testdata/outcomes.golden"

// pinnedSweeps are the gate sweeps whose per-seed outcomes the golden file
// pins: mixed faults, fault-free, learned routing, payload stores, and
// 1000-peer churn worlds.
var pinnedSweeps = []struct {
	name string
	n    int64
	cfg  Config
}{
	{"mixed", 200, Config{}},
	{"none", 50, Config{Level: LevelNone}},
	{"learn", 25, Config{Learn: true}},
	{"blobs", 25, Config{Blobs: true}},
	{"large", 8, Config{Peers: 1000, Churn: true}},
}

// TestSweepOutcomesPinned compares every pinned seed's Summary line with
// the golden file, so "chaos outcomes identical to the previous release" is
// a test rather than a hand diff: a refactor that moves one stuck plan or
// one dropped message on any seed fails here.
func TestSweepOutcomesPinned(t *testing.T) {
	var b strings.Builder
	for _, sw := range pinnedSweeps {
		for seed := int64(1); seed <= sw.n; seed++ {
			cfg := sw.cfg
			cfg.Seed = seed
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: harness error: %v", sw.name, seed, err)
			}
			fmt.Fprintf(&b, "%s %s\n", sw.name, rep.Summary())
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range wantLines {
		if i >= len(gotLines) || gotLines[i] != wantLines[i] {
			g := "<missing>"
			if i < len(gotLines) {
				g = gotLines[i]
			}
			t.Fatalf("%s line %d moved:\n got: %s\nwant: %s", goldenPath, i+1, g, wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines, golden has %d", goldenPath, len(gotLines), len(wantLines))
	}
}
