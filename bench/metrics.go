package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// spec is BENCHMARK.json, the contract at the repository root. It is the one
// place workloads, metrics, units and bounds are written down; the program
// reads it at start-up.
type spec struct {
	RunSeconds float64       `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change counts
// as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// specFile marks the repository root.
const specFile = "BENCHMARK.json"

// repoRoot is the nearest directory at or above the working directory that
// holds BENCHMARK.json: the driver starts the benchmark there, `go test`
// starts in the package directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, specFile)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no " + specFile + " at or above the working directory")
		}
		dir = parent
	}
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, specFile))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no workloads or no metrics", specFile)
	}
	return &s, nil
}

// metrics is one run's values by metric name.
type metrics map[string]float64
