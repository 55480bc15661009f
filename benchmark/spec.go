package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// specFile is BENCHMARK.json at the repository root, where the benchmark is
// run from.
const specFile = "BENCHMARK.json"

// metricSpec is one declared metric. Per-layer metrics carry no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the command reads back: the names it
// must emit, and the bounds -compare judges by.
type spec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// exactMetric reports whether a metric is a count or a virtual-time figure
// that must repeat exactly for one commit and seed.
func exactMetric(name string) bool {
	return name == "events_per_segment" || strings.HasPrefix(name, "virt_")
}
