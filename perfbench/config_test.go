package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

const validSpec = `{
  "command": ["bash", "perfbench/run.sh"],
  "paths": ["perfbench"],
  "run_seconds": 20,
  "workloads": [{"name": "a", "why": "one"}, {"name": "b", "why": "two"}],
  "end_to_end": [
    {"name": "mine_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
  ],
  "per_layer": [%s]
}`

func layer(names ...string) string {
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf(`{"name": %q, "unit": "ms", "better": "lower"}`, n)
	}
	return strings.Join(parts, ", ")
}

func TestSpecValidation(t *testing.T) {
	if _, err := ParseSpec([]byte(fmt.Sprintf(validSpec, layer("preproc.Q0_ms", "go.gc-share_2")))); err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
	many := make([]string, maxPerLayer+1)
	for i := range many {
		many[i] = fmt.Sprintf("m%d", i)
	}
	bad := map[string]string{
		"bad charset":     fmt.Sprintf(validSpec, layer("wal kb")),
		"leading dot":     fmt.Sprintf(validSpec, layer(".hidden")),
		"too long":        fmt.Sprintf(validSpec, layer(strings.Repeat("x", 65))),
		"duplicate":       fmt.Sprintf(validSpec, layer("mine_ms_p50")),
		"too many layers": fmt.Sprintf(validSpec, layer(many...)),
		"no layers":       fmt.Sprintf(validSpec, ""),
		"bound too wide":  strings.Replace(fmt.Sprintf(validSpec, layer("x")), "0.1}", "0.3}", 1),
		"no setup_s":      strings.Replace(fmt.Sprintf(validSpec, layer("x")), `"setup_s"`, `"setup"`, 1),
	}
	for what, src := range bad {
		if _, err := ParseSpec([]byte(src)); err == nil {
			t.Errorf("%s: spec accepted", what)
		}
	}
	var e2e []string
	for i := 0; i <= maxEndToEnd; i++ {
		e2e = append(e2e, fmt.Sprintf(`{"name": "e%d", "unit": "ms", "better": "lower", "bound": 0.1}`, i))
	}
	src := strings.Replace(fmt.Sprintf(validSpec, layer("x")),
		`{"name": "mine_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}`, strings.Join(e2e, ", "), 1)
	if _, err := ParseSpec([]byte(src)); err == nil {
		t.Errorf("%d end-to-end metrics accepted", maxEndToEnd+2)
	}
}

// The repository's own description file must load and declare exactly
// the implemented workloads.
func TestRepositorySpec(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		if !spec.HasWorkload(name) {
			t.Errorf("workload %s is implemented but not declared", name)
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
}
