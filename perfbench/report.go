package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// Report collects one run's outcome: checked operations, metric values
// with their sample counts, and the spans of the traced run.
type Report struct {
	Attempted int
	Failed    int
	Failures  []string
	values    map[string]float64
	samples   map[string]int
	spans     []Span
	start     time.Time
}

// Span is one timed call into a layer, recorded around the call from
// the benchmark's side. Spans of one operation share Op; Parent names
// the enclosing span ("" for the operation's root).
type Span struct {
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Parent string  `json:"parent"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// NewReport starts an empty report.
func NewReport() *Report {
	return &Report{values: map[string]float64{}, samples: map[string]int{}, start: time.Now()}
}

// Check counts one checked operation, failing it when ok is false.
func (r *Report) Check(ok bool, format string, args ...any) bool {
	r.Attempted++
	if !ok {
		r.Failed++
		msg := fmt.Sprintf(format, args...)
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, msg)
		}
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
	}
	return ok
}

// Set records a metric value taken over n samples.
func (r *Report) Set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// Has reports whether a metric was recorded.
func (r *Report) Has(name string) bool {
	_, ok := r.values[name]
	return ok
}

// Time runs fn as one span of operation op and returns its duration.
func (r *Report) Time(op int, name, parent string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	r.spans = append(r.spans, Span{
		Op: op, Name: name, Parent: parent,
		Start: ms(t0.Sub(r.start)), End: ms(t1.Sub(r.start)),
	})
	return t1.Sub(t0), err
}

// SpanSum adds the medians of the named spans.
func (r *Report) SpanSum(names []string) float64 {
	med := r.SpanMedians()
	sum := 0.0
	for _, n := range names {
		sum += med[n]
	}
	return sum
}

// Child records a span of operation op whose duration the layer itself
// reported, placed at offset off from the start of the parent span's
// most recent record.
func (r *Report) Child(op int, name, parent string, off, d time.Duration) {
	for i := len(r.spans) - 1; i >= 0; i-- {
		if p := r.spans[i]; p.Op == op && p.Name == parent {
			start := p.Start + ms(off)
			r.spans = append(r.spans, Span{Op: op, Name: name, Parent: parent, Start: start, End: start + ms(d)})
			return
		}
	}
}

// SpanMedians returns, per span name, the median duration in ms over
// the operations that recorded it.
func (r *Report) SpanMedians() map[string]float64 {
	by := map[string][]float64{}
	for _, s := range r.spans {
		by[s.Name] = append(by[s.Name], s.End-s.Start)
	}
	out := map[string]float64{}
	for k, v := range by {
		out[k] = Median(v)
	}
	return out
}

// Result is the record a run leaves behind: its fingerprint and
// everything it measured.
type Result struct {
	Workload    string             `json:"workload"`
	Trace       bool               `json:"trace"`
	Fingerprint Fingerprint        `json:"fingerprint"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Metrics     map[string]Reading `json:"metrics"`
	Samples     map[string]int     `json:"samples"`
	Spans       []Span             `json:"spans,omitempty"`
}

// Reading is one metric value with its unit.
type Reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Finish renders the declared metrics in the order of want, printing
// one human line each (value, unit, sample count) to w. It fails when a
// declared metric was never recorded or is not a finite number.
func (r *Report) Finish(w io.Writer, want []Metric) (map[string]Reading, error) {
	out := map[string]Reading{}
	for _, m := range want {
		v, ok := r.values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = Reading{Value: v, Unit: m.Unit}
		n := r.samples[m.Name]
		fmt.Fprintf(w, "  %-34s %14.6g %-8s n=%d\n", m.Name, v, m.Unit, n)
	}
	return out, nil
}

// SaveResult writes the record under dir as <workload>-seed<n>-trace<t>.json.
func SaveResult(dir string, res Result) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t := 0
	if res.Trace {
		t = 1
	}
	p := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Fingerprint.Seed, t))
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return "", err
	}
	return p, os.WriteFile(p, b, 0o644)
}

// LoadResult reads a record written by SaveResult.
func LoadResult(path string) (Result, error) {
	var res Result
	b, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(b, &res); err != nil {
		return res, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// Compare prints a side-by-side of two records' metrics, or why their
// timings are not comparable.
func Compare(w io.Writer, a, b Result) {
	if diff := a.Fingerprint.Mismatch(b.Fingerprint); len(diff) > 0 {
		fmt.Fprintf(w, "not comparable: fingerprints differ in %v\n", diff)
		return
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintf(w, "not comparable: %s/trace=%v vs %s/trace=%v\n", a.Workload, a.Trace, b.Workload, b.Trace)
		return
	}
	names := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %14s %14s %8s\n", "metric", a.Fingerprint.Commit, b.Fingerprint.Commit, "change")
	for _, k := range names {
		av, bv := a.Metrics[k], b.Metrics[k]
		ch := "n/a"
		if av.Value != 0 {
			ch = fmt.Sprintf("%+.1f%%", 100*(bv.Value-av.Value)/av.Value)
		}
		fmt.Fprintf(w, "%-34s %14.6g %14.6g %8s %s\n", k, av.Value, bv.Value, ch, av.Unit)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ProcSample is the process-wide resource state at one instant.
type ProcSample struct {
	CPU        time.Duration // user + system CPU time
	MaxRSSKB   int64
	TotalAlloc uint64
	NumGC      uint32
	GCCPU      float64 // seconds of CPU the runtime spent in GC so far
	UserCPU    float64 // seconds of CPU spent running Go code so far
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/user:cpu-seconds"},
}

// SampleProc reads getrusage and the runtime's memory and GC state.
func SampleProc() ProcSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	copy(s, cpuMetrics)
	metrics.Read(s)
	out := ProcSample{
		CPU:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		MaxRSSKB:   ru.Maxrss,
		TotalAlloc: ms.TotalAlloc,
		NumGC:      ms.NumGC,
	}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.GCCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.UserCPU = s[1].Value.Float64()
	}
	return out
}
