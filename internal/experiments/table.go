// Package experiments regenerates every figure-level scenario and
// performance claim of the paper as a measured table (see DESIGN.md §3 for
// the experiment index E1–E12; E13+ add ablations and robustness sweeps
// beyond the paper's figures). Each experiment is deterministic: seeded
// workloads, virtual time, no wall-clock dependence. cmd/experiments prints
// the tables; bench_test.go wraps each experiment in a testing.B benchmark.
package experiments

import (
	"fmt"
	"strings"
	"sync"
)

// Table is one experiment's output: paper-style rows.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a free-text note shown under the table.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, v := range r {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], v)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is one experiment entry point.
type Runner struct {
	ID   string
	Name string
	Run  func() (*Table, error)
}

// scaleSizes returns the experiment's network-size sweep, dropping the
// largest size when short. The qualitative claims (who wins, crossovers)
// hold at every size; only the scaling tail is sacrificed.
func scaleSizes(short bool, sizes ...int) []int {
	if short && len(sizes) > 1 {
		return sizes[:len(sizes)-1]
	}
	return sizes
}

// Result is one experiment's outcome from RunAll.
type Result struct {
	Runner Runner
	Table  *Table
	Err    error
}

// RunAll executes the runners, at most workers at a time, and returns
// results in runner order regardless of completion order, so output stays
// deterministic. workers <= 0 runs every experiment concurrently. Each
// experiment builds its own simnet.Network and seeds its own workload, so
// they share no mutable state and the tables are identical to a sequential
// run; wall time drops to roughly the critical path (the slowest single
// experiment). Experiments must keep that isolation: xmltree documents in
// particular must not be shared across runners (ByteSize memoizes on the
// node, so even size queries write to it).
func RunAll(runners []Runner, workers int) []Result {
	if workers <= 0 || workers > len(runners) {
		workers = len(runners)
	}
	results := make([]Result, len(runners))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, r := range runners {
		wg.Add(1)
		go func(i int, r Runner) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			tab, err := r.Run()
			results[i] = Result{Runner: r, Table: tab, Err: err}
		}(i, r)
	}
	wg.Wait()
	return results
}

// All returns every experiment in DESIGN.md order. short trims the scaling
// sweeps of E4, E9 and E15 and the scenario count of E14, so quick CI runs
// stay under a few seconds; tests pass testing.Short(), cmd/experiments its
// -short flag.
func All(short bool) []Runner {
	return []Runner{
		{"E1", "Fig. 3+4 CD query mutation trace", E1Fig34},
		{"E2", "Fig. 1 gene-expression routing", E2GeneRouting},
		{"E3", "Fig. 5 cover/overlap matrix", E3CoverOverlap},
		{"E4", "Routing: catalog vs flooding vs central", func() (*Table, error) { return E4RoutingComparison(short) }},
		{"E5", "MQP vs coordinator execution", E5MQPvsCoordinator},
		{"E6", "Intensional statements (Examples 1-3)", E6Intensional},
		{"E7", "Currency vs latency tradeoff", E7CurrencyLatency},
		{"E8", "Absorption rewrite ablation", E8AbsorptionRewrite},
		{"E9", "Catalog scaling and caches", func() (*Table, error) { return E9CatalogScaling(short) }},
		{"E10", "Provenance and spoof detection", E10Provenance},
		{"E11", "Statistics annotations", E11Annotations},
		{"E12", "Privacy-preserving join", E12PrivateJoin},
		{"E13", "Optimization ablations", E13Ablations},
		{"E14", "Fault-injection robustness vs oracle", func() (*Table, error) { return E14Robustness(short) }},
		{"E15", "Learned routing shortcuts", func() (*Table, error) { return E15LearnedRouting(short) }},
		{"E16", "Content-addressed payload store", E16PayloadStore},
	}
}
