// Command chaos runs the fault-injection differential harness
// (internal/chaos): seeded random topologies and query workloads executed
// under injected network faults, every run checked against a centralized
// oracle.
//
// Usage:
//
//	chaos -n 200                        # sweep 200 seeds (CI smoke)
//	chaos -seed 1337 -v                 # replay one scenario from its seed
//	chaos -n 500 -level heavy           # sweep at a fixed fault intensity
//	chaos -n 50 -peers 1000 -churn      # large worlds: churn + promotion
//
// -start sets a sweep's first seed and -max-stuck gates the number of stuck
// plans. -peers switches to the large-world generator (layered per-state
// indexes, seed-derived zipf-skewed load, incremental oracle with full
// verification of an -oracle-sample fraction of queries); -churn adds
// mid-run joins, leaves and replica promotions. -learn gives every peer
// learned routing shortcuts and -blobs a content-addressed payload store. A
// sweep failure prints the seed; rerun it with -seed and the same world
// flags (or make chaos SEED=...) for a byte-identical replay. Exit status is
// non-zero when any invariant was violated.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/chaos"
)

func main() {
	seed := flag.Int64("seed", 0, "replay a single scenario by seed (0: sweep mode)")
	n := flag.Int("n", 200, "sweep: number of seeded scenarios")
	start := flag.Int64("start", 1, "sweep: first seed")
	levelName := flag.String("level", "mixed", "fault intensity: none, light, heavy, mixed")
	verbose := flag.Bool("v", false, "print a summary line per scenario")
	maxStuck := flag.Int("max-stuck", -1, "fail when more than this many plans end up stuck (-1: no gate); CI runs the fault-free sweep with -max-stuck 0")
	peersN := flag.Int("peers", 0, "large worlds: number of seller peers (0: original small-world generator)")
	churn := flag.Bool("churn", false, "large worlds: mid-run joins, leaves, crash windows and replica promotion")
	oracleSample := flag.Float64("oracle-sample", 0, "large worlds: fraction of queries given full reference-oracle verification (0: default 0.15)")
	learn := flag.Bool("learn", false, "enable learned routing shortcuts on every peer (trail mining, learned-tier routing, catalog absorption)")
	blobs := flag.Bool("blobs", false, "enable the content-addressed payload store on every peer (dedup at rest, by-reference freight, fetch-on-miss)")
	flag.Parse()

	level := chaos.ParseLevel(*levelName)
	seeds := make([]int64, 0, *n)
	if *seed != 0 {
		seeds = append(seeds, *seed)
		*verbose = true
	} else {
		for i := 0; i < *n; i++ {
			seeds = append(seeds, *start+int64(i))
		}
	}

	var plans, completed, partial, stuck, lost, checked, failures int
	var joined, left, promoted, refused, sampled int
	var byRef, fetches, fetchFails uint64
	var byRefBytes int64
	began := time.Now()
	for _, s := range seeds {
		rep, err := chaos.Run(chaos.Config{Seed: s, Level: level,
			Peers: *peersN, Churn: *churn, OracleSample: *oracleSample,
			Learn: *learn, Blobs: *blobs})
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: seed %d: harness error: %v\n", s, err)
			os.Exit(2)
		}
		if *verbose {
			fmt.Println(rep.Summary())
			for _, d := range rep.StuckDetails {
				fmt.Printf("  stuck: %s\n", d)
			}
		}
		plans += rep.Plans
		completed += rep.Completed
		partial += rep.Partial
		stuck += rep.Stuck
		lost += rep.LostToFaults
		checked += rep.OracleChecked
		joined += rep.Joined
		left += rep.Left
		promoted += rep.Promoted
		refused += rep.PromotionsRefused
		sampled += rep.SampledChecks
		byRef += rep.Blobs.ByRefSent
		byRefBytes += rep.Blobs.ByRefBytes
		fetches += rep.Blobs.Fetches
		fetchFails += rep.Blobs.FetchFailures
		if rep.Failed() {
			failures++
			fmt.Fprintf(os.Stderr, "chaos: seed %d VIOLATED (replay: make chaos SEED=%d):\n", s, s)
			for _, v := range rep.Violations {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
		}
	}
	elapsed := time.Since(began)
	// The large-world columns print on their own line so the small-world
	// summary stays byte-identical across releases (sweep outputs are
	// diffed in CI).
	if *peersN > 0 {
		fmt.Printf("chaos: large worlds (peers=%d churn=%v): %d sampled-oracle checks, %d joined, %d left, %d promoted, %d promotions-refused\n",
			*peersN, *churn, sampled, joined, left, promoted, refused)
	}
	if *blobs {
		fmt.Printf("chaos: payload store: %d by-ref sends saving %d bytes, %d fetches (%d failed)\n",
			byRef, byRefBytes, fetches, fetchFails)
	}
	fmt.Printf("chaos: %d scenarios (level=%s) in %v (%.0f/s): %d plans, %d completed, %d partial, %d stuck, %d lost-to-faults, %d oracle-checked, %d violations\n",
		len(seeds), level, elapsed.Round(time.Millisecond), float64(len(seeds))/elapsed.Seconds(),
		plans, completed, partial, stuck, lost, checked, failures)
	if failures > 0 {
		os.Exit(1)
	}
	if *maxStuck >= 0 && stuck > *maxStuck {
		fmt.Fprintf(os.Stderr, "chaos: %d stuck plans exceed the -max-stuck %d gate\n", stuck, *maxStuck)
		os.Exit(1)
	}
}
