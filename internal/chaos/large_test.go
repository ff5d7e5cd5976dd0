package chaos

import (
	"fmt"
	"syscall"
	"testing"
	"time"
)

// largeSweepSize returns the large-world scenario budget: the acceptance bar
// is 50 seeded 1000-peer churn scenarios, trimmed under -short for CI.
func largeSweepSize() int {
	if testing.Short() {
		return 16
	}
	return 50
}

// TestLargeWorldSweep is the PR 7 acceptance bar: 1000-peer, churn-enabled,
// zipf-loaded scenarios, every one holding every invariant at 0 violations,
// with every lost plan attributed (invariant 3 is part of the violation
// check). Shards run in parallel, so -race stresses the incremental oracle's
// lock-free frozen reads against the pumps.
func TestLargeWorldSweep(t *testing.T) {
	n := largeSweepSize()
	const shards = 8
	for s := 0; s < shards; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			for seed := int64(s + 1); seed <= int64(n); seed += shards {
				rep, err := Run(Config{Seed: seed, Peers: 1000, Churn: true})
				if err != nil {
					t.Fatalf("seed %d: harness error: %v", seed, err)
				}
				if rep.Failed() {
					t.Errorf("seed %d violated invariants (replay: go run ./cmd/chaos -seed %d -peers 1000 -churn):", seed, seed)
					for _, v := range rep.Violations {
						t.Errorf("  %s", v)
					}
					return
				}
				if rep.Peers < 1000 {
					t.Fatalf("seed %d: world has %d peers, wanted >= 1000", seed, rep.Peers)
				}
			}
		})
	}
}

// TestLargeWorldDeterministic: a large world — churn schedule, promotions,
// zipf workload, outcome — is as much a pure function of its seed as a small
// one, which is what makes churn failures replayable.
func TestLargeWorldDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 42, 977} {
		a, err := Run(Config{Seed: seed, Peers: 1000, Churn: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(Config{Seed: seed, Peers: 1000, Churn: true})
		if err != nil {
			t.Fatal(err)
		}
		if a.Summary() != b.Summary() {
			t.Fatalf("seed %d not deterministic:\n%s\n%s", seed, a.Summary(), b.Summary())
		}
	}
}

// TestLargeWorldChurnAccounting: across a handful of seeds the churn
// machinery must actually fire — joins, leaves, successful promotions AND
// bound-exhausted refusals all observed — or the robustness claims test
// nothing.
func TestLargeWorldChurnAccounting(t *testing.T) {
	var joined, left, promoted, refused int
	for seed := int64(1); seed <= 10; seed++ {
		rep, err := Run(Config{Seed: seed, Peers: 500, Churn: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			t.Fatalf("seed %d: %v", seed, rep.Violations)
		}
		if rep.Promoted+rep.PromotionsRefused > rep.Left {
			t.Fatalf("seed %d: more promotion outcomes (%d+%d) than leavers (%d)",
				seed, rep.Promoted, rep.PromotionsRefused, rep.Left)
		}
		joined += rep.Joined
		left += rep.Left
		promoted += rep.Promoted
		refused += rep.PromotionsRefused
	}
	if joined == 0 || left == 0 || promoted == 0 || refused == 0 {
		t.Fatalf("churn machinery partly dead: joined=%d left=%d promoted=%d refused=%d",
			joined, left, promoted, refused)
	}
}

// TestLargeWorldWithoutChurn: the large generator with churn off is the
// pure scale test — no joiners means the oracle bounds collapse to strict
// equality, and a fault-free run must strand nothing (invariant 5 at 10³).
func TestLargeWorldWithoutChurn(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rep, err := Run(Config{Seed: seed, Peers: 1000, Level: LevelNone})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			t.Fatalf("seed %d: %v", seed, rep.Violations)
		}
		if rep.Joined+rep.Left+rep.Promoted+rep.PromotionsRefused != 0 {
			t.Fatalf("seed %d: churn events in a churn-free run: %s", seed, rep.Summary())
		}
		if rep.Stuck != 0 || rep.LostToFaults != 0 {
			t.Fatalf("seed %d: fault-free large world stranded plans: %s", seed, rep.Summary())
		}
	}
}

// TestIncrementalOracleFullySampled turns the sampled differential check up
// to every query: the incremental oracle's bounds must agree with the
// processor-based reference oracle on all of them. This is the oracle-vs-
// oracle test that keeps the cheap path honest.
func TestIncrementalOracleFullySampled(t *testing.T) {
	n := int64(10)
	if testing.Short() {
		n = 4
	}
	for seed := int64(1); seed <= n; seed++ {
		rep, err := Run(Config{Seed: seed, Peers: 300, Churn: true, OracleSample: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			t.Fatalf("seed %d: %v", seed, rep.Violations)
		}
		if rep.SampledChecks != rep.Plans {
			t.Fatalf("seed %d: OracleSample=1 verified %d of %d plans", seed, rep.SampledChecks, rep.Plans)
		}
	}
}

// TestLargeWorldScalesToTenThousand: one seed at the top of the 10³–10⁴
// target range. Skipped under -short (it is the single most expensive
// scenario in the suite).
func TestLargeWorldScalesToTenThousand(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁴-peer scenario skipped under -short")
	}
	rep, err := Run(Config{Seed: 7, Peers: 10_000, Churn: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("10k peers: %v", rep.Violations)
	}
	if rep.Peers < 10_000 {
		t.Fatalf("world has %d peers, wanted >= 10000", rep.Peers)
	}
}

// BenchmarkScenarioLarge measures large-world throughput — full 1000-peer
// churn scenarios per op — plus the two acceptance metrics bench-chaos
// records to BENCH_chaos.json: the incremental oracle's per-scenario cost
// (oracle-ms/op must stay within 10× of a small-world scenario's total
// ~1ms) and peak RSS.
func BenchmarkScenarioLarge(b *testing.B) {
	var oracleTime time.Duration
	var plans, completed, partial, stuck, lost int
	for i := 0; i < b.N; i++ {
		rep, err := Run(Config{Seed: int64(i + 1), Peers: 1000, Churn: true})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed() {
			b.Fatalf("seed %d: %v", i+1, rep.Violations)
		}
		oracleTime += rep.OracleTime
		plans += rep.Plans
		completed += rep.Completed
		partial += rep.Partial
		stuck += rep.Stuck
		lost += rep.LostToFaults
	}
	b.ReportMetric(float64(oracleTime.Milliseconds())/float64(b.N), "oracle-ms/op")
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		// Linux reports Maxrss in KiB.
		b.ReportMetric(float64(ru.Maxrss)/1024, "peak-rss-MB")
	}
	if plans > 0 {
		b.ReportMetric(float64(completed)/float64(plans), "completed/plan")
		b.ReportMetric(float64(partial)/float64(plans), "partial/plan")
		b.ReportMetric(float64(stuck)/float64(plans), "stuck/plan")
		b.ReportMetric(float64(lost)/float64(plans), "lost/plan")
	}
}
