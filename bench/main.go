// Command bench is the repository's benchmark: five seeded, oracle-checked
// workloads, four on the internal/peer runtime over inline simnet and one
// through three cmd/mqpd processes on loopback TCP. See README.md.
//
// The driver's form runs one workload and ends with one JSON line:
//
//	bash bench/run.sh --workload area_fanout --seed 3 --seconds 15 --trace 0
//
// Without --workload it runs the full set (every workload, untraced and
// traced, each in a process of its own) and prints every metric by name with
// its unit; -repeat N runs N sets of untraced runs and checks their spread
// against the bounds.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "run this one workload and end with the driver's JSON line")
	seed := flag.Int64("seed", 1, "seed of every input generator")
	seconds := flag.Float64("seconds", 0, "length of an untraced run (default: run_seconds of "+specFile+")")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced; default both (full set only)")
	traceOut := flag.String("trace-out", "", "write the traced run's spans here as JSON lines (default "+buildDir+"/trace-<workload>.jsonl)")
	out := flag.String("out", "", "write the full set's metrics here as JSON (default "+buildDir+"/bench.json)")
	repeat := flag.Int("repeat", 0, "run this many sets of untraced runs and check their spread against the bounds")
	flag.Parse()

	// Children are stopped and reaped on every way out, a signal included.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopChildren()
		os.Exit(130)
	}()
	code := 0
	if err := realMain(*workload, *seed, *seconds, *trace, *traceOut, *out, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
	}
	stopChildren()
	os.Exit(code)
}

func realMain(workload string, seed int64, seconds float64, trace int, traceOut, out string, repeat int) error {
	e, err := newEnv()
	if err != nil {
		return err
	}
	if seconds == 0 {
		seconds = e.spec.RunSeconds
	}
	switch {
	case workload != "":
		if traceOut == "" {
			traceOut = filepath.Join(e.root, buildDir, "trace-"+workload+".jsonl")
		}
		return e.driverRun(workload, seed, seconds, trace, traceOut)
	case repeat > 0:
		return e.repeatSets(repeat, seed, seconds)
	default:
		return e.fullSet(seed, seconds, trace, out)
	}
}

// outcome is the object a driver run ends its standard output with.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun is one run as the driver asks for it: every metric by name with
// its unit and sample count, and as the last line the outcome.
func (e *env) driverRun(name string, seed int64, seconds float64, trace int, traceOut string) error {
	var r *run
	var err error
	defs := e.spec.EndToEnd
	if trace == 1 {
		defs = e.spec.PerLayer
		r, err = e.runTraced(name, seed, fullSizes, traceOut)
	} else {
		r, err = e.runEndToEnd(name, seed, time.Duration(seconds*float64(time.Second)), fullSizes)
	}
	if err != nil {
		return err
	}
	fmt.Printf("# workload=%s trace=%d seed=%d seconds=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		name, max(trace, 0), seed, seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), e.commit())
	res := outcome{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, d := range defs {
		v := r.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", name, d.Name, v)
		}
		res.Metrics[d.Name] = value{v, d.Unit}
		n := ""
		if c := r.samples[d.Name]; c > 0 {
			n = fmt.Sprintf("  n=%d", c)
		}
		fmt.Printf("%-12s %-30s %14.4f %-6s%s\n", name, d.Name, v, d.Unit, n)
	}
	fmt.Printf("%-12s %-30s %14.4f %-6s  failed=%d attempted=%d\n", name, "fail_ratio",
		ratio(float64(r.failed), float64(r.attempted)), "ratio", r.failed, r.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		return fmt.Errorf("%s: %d of %d queries failed the oracle check", name, r.failed, r.attempted)
	}
	return nil
}

func (e *env) commit() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	if b, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// childRun runs one workload in a process of its own, as the driver would,
// so that no run inherits the heap, the caches or the scheduler settings of
// the one before. It returns what the child printed before its outcome, and
// the outcome.
func (e *env) childRun(name string, seed int64, seconds float64, trace int) (string, *outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Dir = e.root
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	p, err := start(cmd, syscall.SIGTERM)
	if err != nil {
		return "", nil, err
	}
	if err := p.wait(); err != nil {
		return "", nil, fmt.Errorf("%s --trace %d: %w", name, trace, err)
	}
	text := strings.TrimRight(stdout.String(), "\n")
	cut := strings.LastIndexByte(text, '\n') + 1
	var res outcome
	if err := json.Unmarshal([]byte(text[cut:]), &res); err != nil {
		return "", nil, fmt.Errorf("%s --trace %d: outcome line: %w", name, trace, err)
	}
	return text[:cut], &res, nil
}

// fullSet runs every workload, untraced and traced, and prints every metric
// by name with its unit; the same goes to a JSON file.
func (e *env) fullSet(seed int64, seconds float64, trace int, out string) error {
	workloads := map[string]map[string]float64{}
	for _, wd := range e.spec.Workloads {
		workloads[wd.Name] = map[string]float64{}
		for _, tr := range []int{0, 1} {
			if trace >= 0 && trace != tr {
				continue
			}
			text, res, err := e.childRun(wd.Name, seed, seconds, tr)
			if err != nil {
				return err
			}
			fmt.Print(text)
			for k, v := range res.Metrics {
				workloads[wd.Name][k] = v.Value
			}
			if tr == 0 {
				workloads[wd.Name]["fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
			}
		}
	}
	doc := map[string]any{"workloads": workloads, "header": map[string]any{
		"nproc": runtime.NumCPU(), "go": runtime.Version(), "commit": e.commit(), "seed": seed, "seconds": seconds}}
	if out == "" {
		out = filepath.Join(e.root, buildDir, "bench.json")
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

// repeatSets runs n sets of untraced runs back to back and prints, for each
// workload and end-to-end metric, each set's value, the relative spread
// (max-min over median) and the bound; a spread beyond its bound is an error,
// except for setup_s, whose spread the driver does not hold to its bound
// either (it compares medians of ten runs).
func (e *env) repeatSets(n int, seed int64, seconds float64) error {
	fmt.Printf("# sets=%d seed=%d seconds=%v nproc=%d go=%s commit=%s\n",
		n, seed, seconds, runtime.NumCPU(), runtime.Version(), e.commit())
	values := map[string][]float64{}
	for set := 0; set < n; set++ {
		for _, wd := range e.spec.Workloads {
			_, res, err := e.childRun(wd.Name, seed, seconds, 0)
			if err != nil {
				return err
			}
			for _, d := range e.spec.EndToEnd {
				key := wd.Name + " " + d.Name
				values[key] = append(values[key], res.Metrics[d.Name].Value)
			}
		}
	}
	var over []string
	for _, wd := range e.spec.Workloads {
		for _, d := range e.spec.EndToEnd {
			vs := values[wd.Name+" "+d.Name]
			sorted := append([]float64(nil), vs...)
			sort.Float64s(sorted)
			spread := ratio(sorted[len(sorted)-1]-sorted[0], median(sorted))
			mark := ""
			switch {
			case spread <= d.Bound:
			case d.Name == "setup_s":
				mark = "  over (not held to it)"
			default:
				mark = "  OVER"
				over = append(over, wd.Name+" "+d.Name)
			}
			fmt.Printf("%-12s %-18s %-6s", wd.Name, d.Name, d.Unit)
			for _, v := range vs {
				fmt.Printf(" %12.4f", v)
			}
			fmt.Printf("  spread %.4f bound %.2f%s\n", spread, d.Bound, mark)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread beyond bound: %s", strings.Join(over, ", "))
	}
	return nil
}
