// Command experiments regenerates every table/figure-level experiment of
// the reproduction (E1–E16, indexed by experiments.All; TESTING.md says how
// the tables are checked) and prints paper-style rows.
//
// Experiments are independent (each builds its own simulated network and
// seeds its own workload), so they run concurrently; tables are printed in
// experiments.All order regardless of completion order, so output is
// byte-for-byte identical to a sequential run.
//
// Usage:
//
//	experiments               # run all, one worker per experiment
//	experiments -only E4      # run one experiment
//	experiments -parallel 2   # cap concurrency
//	experiments -short        # trim the E4/E9 scaling sweeps (CI mode)
//	experiments -list         # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment by id (e.g. E4)")
	list := flag.Bool("list", false, "list experiments and exit")
	parallel := flag.Int("parallel", 0, "max experiments in flight (<=0: all at once)")
	short := flag.Bool("short", false, "drop the largest network sizes from scaling sweeps")
	flag.Parse()

	runners := experiments.All(*short)
	if *list {
		for _, r := range runners {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return
	}
	if *only != "" {
		var kept []experiments.Runner
		for _, r := range runners {
			if strings.EqualFold(*only, r.ID) {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *only)
			os.Exit(1)
		}
		runners = kept
	}

	failed := 0
	for _, res := range experiments.RunAll(runners, *parallel) {
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", res.Runner.ID, res.Err)
			failed++
			continue
		}
		fmt.Println(res.Table.Render())
	}
	if failed > 0 {
		os.Exit(1)
	}
}
