package experiments

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/workload"
)

// E15LearnedRouting measures the learned-routing shortcut table
// (internal/route.Shortcuts) under a repeated zipf-skewed workload: a
// learning client mines (area → index server) edges from the provenance
// trails of its own results, routes later plans through the learned tier
// first, and absorbs confirmed edges into its catalog as real index
// registrations. Warm-phase routing must beat the E9 cold baselines — the
// point of learning is to skip the meta level without a manual cache. short
// drops the largest network size.
func E15LearnedRouting(short bool) (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "Learned routing shortcuts: cold vs warm convergence, repeated zipf workload",
		Columns: []string{"peers", "phase", "avg hops", "avg msgs", "shortcut hit rate"},
	}
	for _, n := range scaleSizes(short, 48, 128) {
		w, err := buildGarageWorld(n, int64(n)+7)
		if err != nil {
			return nil, err
		}
		// A learning twin of the plain client, in the same world.
		learner := w.Peer(peer.Config{Addr: "learner:9020", Key: []byte("kL"), LearnShortcuts: true})
		w.Knows(learner, "meta:9020", w.NS.MustParseArea("[*, *]"))

		queries := workloadAnswerable(w, int64(n)*3+2, 48, 1.6)
		if len(queries) < 8 {
			return nil, fmt.Errorf("E15: only %d answerable queries", len(queries))
		}

		runPass := func(c *peer.Peer, tag string, pass int) (hops, msgs float64, err error) {
			w.Net.ResetMetrics()
			totalHops := 0
			for qi, area := range queries {
				plan := algebra.NewPlan(fmt.Sprintf("e15-%s-%d-%d", tag, pass, qi),
					c.Addr(), algebra.Display(algebra.Count(algebra.URN(namespace.EncodeURN(area)))))
				plan.RetainOriginal()
				res, _ := w.Ask(c, c.Addr(), plan)
				totalHops += res.Hops
			}
			if err := w.Err(); err != nil {
				return 0, 0, fmt.Errorf("E15: %s pass %d: %w", tag, pass, err)
			}
			m := w.Net.Metrics()
			return float64(totalHops) / float64(len(queries)),
				float64(m.Messages) / float64(len(queries)), nil
		}

		// Baseline: the plain client, same seed, second pass (its peer
		// cache is whatever plain routing leaves — no learning).
		if _, _, err := runPass(w.client, "nolearn", 1); err != nil {
			return nil, err
		}
		noHops, noMsgs, err := runPass(w.client, "nolearn", 2)
		if err != nil {
			return nil, err
		}

		coldHops, coldMsgs, err := runPass(learner, "learn", 1)
		if err != nil {
			return nil, err
		}
		preStats := learner.Shortcuts().Stats()
		warmHops, warmMsgs, err := runPass(learner, "learn", 2)
		if err != nil {
			return nil, err
		}
		postStats := learner.Shortcuts().Stats()
		warmLookups := float64(postStats.Hits - preStats.Hits + postStats.Misses - preStats.Misses)
		hitRate := 0.0
		if warmLookups > 0 {
			hitRate = float64(postStats.Hits-preStats.Hits) / warmLookups
		}

		t.AddRow(n, "no-learning", noHops, noMsgs, "-")
		t.AddRow(n, "cold (mining)", coldHops, coldMsgs, "-")
		t.AddRow(n, "warm (learned)", warmHops, warmMsgs, fmt.Sprintf("%.2f", hitRate))

		// The E9 cold baselines the warm phase must beat.
		if hitRate <= 0.73 {
			return nil, fmt.Errorf("E15: warm shortcut hit rate %.2f, want > 0.73", hitRate)
		}
		if warmHops >= 4.12 {
			return nil, fmt.Errorf("E15: warm hops %.2f, want < 4.12", warmHops)
		}
		if warmMsgs >= noMsgs {
			return nil, fmt.Errorf("E15: warm msgs/query %.2f not below no-learning %.2f", warmMsgs, noMsgs)
		}
		if warmHops > coldHops {
			return nil, fmt.Errorf("E15: warm hops %.2f above cold %.2f", warmHops, coldHops)
		}
		if postStats.Learned == 0 || postStats.Entries == 0 {
			return nil, fmt.Errorf("E15: nothing learned: %+v", postStats)
		}
	}
	t.Note("learned shortcuts route repeat queries straight to the binding index server — the meta hop disappears from the warm path, and confirmed edges survive in the catalog as absorbed index registrations")
	return t, nil
}

// workloadAnswerable draws a zipf-skewed query workload and keeps the areas
// the world can answer from a handful of sellers: hops then measure routing
// depth (client → index vs client → meta → index), not base-server fan-out,
// which is what the learned tier can actually shorten.
func workloadAnswerable(w *garageWorld, seed int64, count int, zipf float64) []namespace.Area {
	var out []namespace.Area
	for _, q := range workload.Queries(w.NS, seed, count, zipf) {
		if groundTruth(w.sellers, q) == 0 {
			continue
		}
		fanout := 0
		for _, s := range w.sellers {
			if s.Area.Overlaps(q.Area) {
				fanout++
			}
		}
		if fanout == 1 {
			out = append(out, q.Area)
		}
	}
	return out
}
