package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestFingerprintMismatch(t *testing.T) {
	a := Fingerprint{NumCPU: 2, GOMAXPROCS: 2, CPUModel: "x", GoVersion: "go1.24.0", Commit: "c1", Seed: 1}
	b := a
	b.Commit, b.Seed = "c2", 7
	if d := a.Mismatch(b); len(d) != 0 {
		t.Fatalf("commit and seed made results incomparable: %v", d)
	}
	b.NumCPU, b.GoVersion = 4, "go1.25.0"
	d := a.Mismatch(b)
	if strings.Join(d, ",") != "nproc,go_version" {
		t.Fatalf("mismatch = %v, want [nproc go_version]", d)
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	fp := Fingerprint{NumCPU: 2, GOMAXPROCS: 2, CPUModel: "x", GoVersion: "go1.24.0"}
	a := Result{Workload: "w", Fingerprint: fp, Metrics: map[string]Reading{"m": {Value: 100, Unit: "ms"}}}
	b := a
	b.Metrics = map[string]Reading{"m": {Value: 110, Unit: "ms"}}
	var out bytes.Buffer
	Compare(&out, a, b)
	if !strings.Contains(out.String(), "+10.0%") {
		t.Fatalf("same machine: %q", out.String())
	}
	b.Fingerprint.CPUModel = "y"
	out.Reset()
	Compare(&out, a, b)
	if !strings.HasPrefix(out.String(), "not comparable") || strings.Contains(out.String(), "%") {
		t.Fatalf("other machine: %q", out.String())
	}
}
