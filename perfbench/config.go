package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// Spec is the part of the benchmark's description file, BENCHMARK.json,
// that a run uses: which workloads exist, and which metrics a run
// reports with --trace 0 (end_to_end) and --trace 1 (per_layer).
type Spec struct {
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// Workload names one input set and why the benchmark runs it.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Metric is one reported figure. Bound is the share of the baseline
// median by which an end-to-end metric may worsen; per-layer metrics
// have none.
type Metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

const (
	maxEndToEnd = 16
	maxPerLayer = 128
	maxBound    = 0.25
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// LoadSpec reads and validates the description file at path.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	return ParseSpec(b)
}

// ParseSpec decodes and validates a description file.
func ParseSpec(b []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("decoding benchmark spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks names, units, counts and bounds.
func (s *Spec) Validate() error {
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("spec: run_seconds %d outside 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("spec: %d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("spec: %d end-to-end metrics, want 1..%d", n, maxEndToEnd)
	}
	if n := len(s.PerLayer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("spec: %d per-layer metrics, want 1..%d", n, maxPerLayer)
	}
	seen := map[string]bool{}
	use := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("spec: %s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("spec: name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use("workload", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("spec: workload %q needs a why of 1..200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		if err := use("metric", m.Name); err != nil {
			return err
		}
		if err := m.validate(); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > maxBound {
			return fmt.Errorf("spec: end-to-end metric %q needs a bound in (0, %g]", m.Name, maxBound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		return fmt.Errorf("spec: end-to-end metrics must include setup_s in s, lower better")
	}
	for _, m := range s.PerLayer {
		if err := use("metric", m.Name); err != nil {
			return err
		}
		if err := m.validate(); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("spec: per-layer metric %q has a bound", m.Name)
		}
	}
	return nil
}

func (m Metric) validate() error {
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("spec: metric %q has bad unit %q", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("spec: metric %q: better must be lower or higher", m.Name)
	}
	return nil
}

// HasWorkload reports whether name is a declared workload.
func (s *Spec) HasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
