package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/xmltree"
)

// phase is what the closed loop measured over a number of batches. One
// client, one query in flight: the next query is submitted when the previous
// answer has been checked.
type phase struct {
	attempted, failed, partial int
	writes, ops                int
	// rates is oracle-correct queries per second of each batch. A batch is a
	// whole number of passes over the query list, so every batch has the
	// same mix. Its time is the time spent inside the system under test
	// (submit to result, plus write calls); the benchmark's own oracle check
	// between queries is not counted.
	rates []float64
	lats  []float64 // submit to result, microseconds, every timed query
	hops  int64
}

func (p *phase) queriesOK() int { return p.attempted - p.failed }

// maxLoggedFailures bounds how many failed queries are explained on stderr.
const maxLoggedFailures = 5

// batch drives w through passes passes over its query list, with the
// workload's writes, and appends the batch's rate.
func (p *phase) batch(w world, passes int) error {
	qs := w.queries()
	every := w.writeEvery()
	var busy time.Duration
	ok := 0
	for pass := 0; pass < passes; pass++ {
		for qi := range qs {
			if every > 0 && p.ops%every == 0 {
				d, err := w.write()
				if err != nil {
					return fmt.Errorf("write %d: %w", p.writes, err)
				}
				busy += d
				p.writes++
			}
			p.ops++
			want, err := w.expected(qi)
			if err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			res, err := w.do(qi)
			busy += res.lat
			p.attempted++
			p.lats = append(p.lats, float64(res.lat)/1e3)
			why := ""
			if err != nil {
				why = err.Error()
			} else {
				why = p.check(res, want)
			}
			if why != "" {
				p.failed++
				if p.failed <= maxLoggedFailures {
					fmt.Fprintf(os.Stderr, "bench: query %d failed: %s\n", qi, why)
				}
				continue
			}
			ok++
			p.hops += int64(res.hops)
		}
	}
	p.rates = append(p.rates, float64(ok)/busy.Seconds())
	return nil
}

// check compares a result with the oracle's answer as multisets of canonical
// XML. A partial result that still equals the oracle (an empty area, say) is
// counted as partial, not as failed.
func (p *phase) check(res result, want map[string]int) string {
	items, err := res.plan.Results()
	if err != nil {
		return err.Error()
	}
	if eq, diff := chaos.MultisetEqual(chaos.Multiset(items), want); !eq {
		return fmt.Sprintf("plan %q differs from the oracle: %s", res.plan.ID, diff)
	}
	if res.plan.PartialResult() {
		p.partial++
	}
	return ""
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMB is the heap in use right now, garbage included.
func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// fresh puts the process in the state a new one starts from, as far as the
// program's process-wide caches go, and returns the heap then in use: it
// empties the identical-frame cache and collects twice. The second cycle
// empties the sync.Pools; the pooled decoder, and every arena chained to its
// current one, goes with it (see README). An untraced run does this before
// it builds a world and before it sizes one, never in between.
func fresh() float64 {
	xmltree.SetFrameCacheLimit(xmltree.DefaultFrameCacheBytes) // setting the limit empties the cache
	runtime.GC()
	runtime.GC()
	return heapMB()
}

// quantile returns the q-quantile of vs by nearest rank; vs is sorted in
// place.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	return vs[max(int(math.Ceil(q*float64(len(vs))))-1, 0)]
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
