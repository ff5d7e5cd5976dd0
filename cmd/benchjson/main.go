// Command benchjson converts a `go test -json` benchmark stream (stdin)
// into a clean machine-readable summary: one record per benchmark with its
// parsed metrics, instead of a raw event log that every consumer has to sed
// apart.
//
// Usage:
//
//	go test -run '^$' -bench X -benchmem -json ./... | benchjson -out BENCH_x.json
//
// The human-readable benchmark result lines are echoed to stdout so make
// targets keep their at-a-glance output. Exit status is non-zero when the
// stream contains a test failure or no benchmark results at all.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// event is the subset of test2json's record shape benchjson consumes.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// result is one parsed benchmark line.
type result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom units (KB/query, msgs/plan, ...) verbatim.
	Extra map[string]float64 `json:"extra,omitempty"`
}

type summary struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Benchmarks []result `json:"benchmarks"`
	Failures   int      `json:"failures,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func main() {
	out := flag.String("out", "-", "summary destination (- for stdout)")
	flag.Parse()

	sum := summary{Benchmarks: []result{}}
	// A benchmark result is emitted as several output events — the padded
	// name first, the metrics once timing finishes — so output is
	// re-assembled per package and parsed line by line.
	partial := map[string]string{}
	handleLine := func(pkg, line string) {
		switch {
		case strings.HasPrefix(line, "goos: "):
			sum.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			sum.Goarch = strings.TrimPrefix(line, "goarch: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			return
		}
		fmt.Println(line) // keep the human-readable output flowing
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		r := result{Name: m[1], Package: pkg, Iterations: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				if r.Extra == nil {
					r.Extra = map[string]float64{}
				}
				r.Extra[fields[i+1]] = v
			}
		}
		sum.Benchmarks = append(sum.Benchmarks, r)
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate interleaved non-JSON noise
		}
		if ev.Action == "fail" {
			sum.Failures++
		}
		if ev.Action != "output" {
			continue
		}
		buf := partial[ev.Package] + ev.Output
		for {
			nl := strings.IndexByte(buf, '\n')
			if nl < 0 {
				break
			}
			handleLine(ev.Package, buf[:nl])
			buf = buf[nl+1:]
		}
		partial[ev.Package] = buf
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(2)
	}
	for pkg, rest := range partial {
		if rest != "" {
			handleLine(pkg, rest)
		}
	}

	enc, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	if sum.Failures > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d package failures in stream\n", sum.Failures)
		os.Exit(1)
	}
	if len(sum.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results in stream")
		os.Exit(1)
	}
}
