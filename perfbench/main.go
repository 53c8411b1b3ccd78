// Command perfbench is the repository's benchmark: it runs one named
// MINE RULE workload against the public API for a fixed time, checks
// every result against a reference, and prints the end-to-end metrics
// (--trace 0) or the per-layer ledger (--trace 1) declared in
// BENCHMARK.json. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload basket-simple --seed 1 --seconds 20 --trace 0
//
// With --compare a.json b.json it prints two saved result records side
// by side instead, or "not comparable" when their fingerprints differ.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workloadFunc runs one workload for the given options, recording into
// rep. An error aborts the run without a result line.
type workloadFunc func(o options, rep *Report) error

var workloads = map[string]workloadFunc{
	"basket-simple":    runBasketSimple,
	"purchase-general": runPurchaseGeneral,
	"served-mixed":     runServedMixed,
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scratch  string // where the run writes: .bench_build in the checkout
}

// deadline is when the measured phase of a run ends.
func (o options) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(share * float64(o.seconds) * float64(time.Second)))
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var trace int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload name from BENCHMARK.json")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 0, "measured seconds (default: run_seconds from BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	flag.BoolVar(&compare, "compare", false, "compare the two result records named as arguments")
	flag.Parse()

	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	o.scratch = filepath.Join(wd, ".bench_build")
	if compare {
		if flag.NArg() != 2 {
			return errors.New("--compare needs two result files")
		}
		a, err := LoadResult(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := LoadResult(flag.Arg(1))
		if err != nil {
			return err
		}
		Compare(os.Stdout, a, b)
		return nil
	}

	spec, err := LoadSpec(filepath.Join(wd, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if !spec.HasWorkload(o.workload) {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("workload %q is declared but not implemented", o.workload)
	}
	if o.seconds <= 0 {
		o.seconds = spec.RunSeconds
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1

	fp := TakeFingerprint(wd, o.seed)
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, o.seconds, trace)
	fmt.Printf("fingerprint: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		fp.NumCPU, fp.GOMAXPROCS, fp.CPUModel, fp.GoVersion, fp.Commit)

	rep := NewReport()
	steal0, total0 := hostSteal()
	checkFigure2b(rep)
	if err := fn(o, rep); err != nil {
		return err
	}
	if steal1, total1 := hostSteal(); total1 > total0 {
		fmt.Printf("host: %.1f%% of CPU time was stolen by other guests during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	ratio := 0.0
	if rep.Attempted > 0 {
		ratio = float64(rep.Failed) / float64(rep.Attempted)
	}
	rep.Set("error_ratio", ratio, rep.Attempted)
	want := spec.EndToEnd
	if o.trace {
		want = spec.PerLayer
	}
	fmt.Println("metrics:")
	readings, err := rep.Finish(os.Stdout, want)
	if err != nil {
		return err
	}
	res := Result{
		Workload: o.workload, Trace: o.trace, Fingerprint: fp,
		Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Failures: rep.Failures,
		Metrics: readings, Samples: rep.samples, Spans: rep.spans,
	}
	if p, err := SaveResult(filepath.Join(o.scratch, "results"), res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving result record:", err)
	} else {
		fmt.Println("record:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]Reading `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, readings})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rep.Failed > 0 {
		os.Exit(2)
	}
	return nil
}
