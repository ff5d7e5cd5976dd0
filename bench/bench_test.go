package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at toy size, untraced twice and traced
// twice, and checks that every metric BENCHMARK.json lists comes out once
// with a finite value under a well-formed name, that nothing fails the
// oracle, and that two runs of one seed agree exactly on the counts.
func TestSmoke(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopChildren)
	for _, wd := range e.spec.Workloads {
		t.Run(wd.Name, func(t *testing.T) {
			if wd.Name == "tcp_chain" && testing.Short() {
				t.Skip("builds and spawns cmd/mqpd")
			}
			// A zero duration runs the minimum number of epochs: a fixed
			// number of queries, so the counts repeat.
			var untraced, traced [2]*run
			for i := range untraced {
				if untraced[i], err = e.runEndToEnd(wd.Name, 7, 0, toySizes); err != nil {
					t.Fatal(err)
				}
				out := filepath.Join(t.TempDir(), "trace.jsonl")
				if traced[i], err = e.runTraced(wd.Name, 7, toySizes, out); err != nil {
					t.Fatal(err)
				}
				if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
					t.Errorf("no spans written: %v", err)
				}
			}
			for _, c := range []struct {
				r    *run
				want []metricDef
			}{{untraced[0], e.spec.EndToEnd}, {traced[0], e.spec.PerLayer}} {
				if c.r.failed != 0 || c.r.attempted == 0 {
					t.Errorf("%d of %d queries failed", c.r.failed, c.r.attempted)
				}
				if len(c.r.metrics) != len(c.want) {
					t.Errorf("%d metrics reported, %s lists %d", len(c.r.metrics), specFile, len(c.want))
				}
				for _, m := range c.want {
					v, ok := c.r.metrics[m.Name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) || !nameRE.MatchString(m.Name) {
						t.Errorf("metric %q: present=%v value=%v", m.Name, ok, v)
					}
				}
			}
			for _, m := range e.spec.EndToEnd {
				if untraced[0].metrics[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, untraced[0].metrics[m.Name])
				}
			}
			for _, name := range []string{"hops_per_query", "wire_kb_per_query"} {
				if a, b := untraced[0].metrics[name], untraced[1].metrics[name]; a != b {
					t.Errorf("%s differs between two runs of one seed: %v and %v", name, a, b)
				}
			}
			if a, b := traced[0].metrics["simnet.msgs_per_query"], traced[1].metrics["simnet.msgs_per_query"]; a != b {
				t.Errorf("simnet.msgs_per_query differs between two runs of one seed: %v and %v", a, b)
			}
		})
	}
}
