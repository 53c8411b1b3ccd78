package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"minerule"
	"minerule/internal/gen"
)

// Workload sizes. basket-simple is Quest T10.I4 with D=8000 groups over
// N=500 items (about 80k rows); purchase-general is 200 customers with
// about 8 dates of 5 items each over 80 items (about 8k rows).
const (
	basketGroups   = 8000
	basketItems    = 500
	purchaseCusts  = 200
	purchaseDates  = 8
	purchasePerDay = 5
	purchaseItems  = 80

	// A run generates several data sets from its seed and mines them in
	// turn: rule counts differ by a factor of two between generator
	// seeds, and rotating keeps a run's medians from resting on one
	// draw. Each set-up is one data set, so setup_s is their median.
	// The general workload's small tables vary most between seeds.
	basketDatasets   = 4
	purchaseDatasets = 8
	minP90           = 100 // samples a p90 needs (10 beyond it)
	minTraced        = 16  // fewest operations in each phase of a traced run
)

// basketStatement is the simple statement over a basket table, with
// the output name, source table and support to fill in.
const basketStatement = `MINE RULE %s AS
SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
FROM %s
GROUP BY gid
EXTRACTING RULES WITH SUPPORT: %g, CONFIDENCE: 0.3`

// purchaseStatement is the §2 FilteredOrderedSets statement at a
// support that yields thousands of rules on the generated table.
const purchaseStatement = `MINE RULE FilteredOrderedSets AS
SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE
WHERE BODY.price >= 100 AND HEAD.price < 100
FROM Purchase
WHERE dt BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'
GROUP BY cust
CLUSTER BY dt HAVING BODY.dt < HEAD.dt
EXTRACTING RULES WITH SUPPORT: 0.02, CONFIDENCE: 0.3`

// figure1 is the paper's Purchase table (Figure 1) and figure2b the
// rules its §2 statement must produce (Figure 2.b).
const figure1 = `
CREATE TABLE Purchase (tr INTEGER, cust VARCHAR, item VARCHAR, dt DATE, price FLOAT, qty INTEGER);
INSERT INTO Purchase VALUES
	(1, 'cust1', 'ski_pants',    DATE '1995-12-17', 140, 1),
	(1, 'cust1', 'hiking_boots', DATE '1995-12-17', 180, 1),
	(2, 'cust2', 'col_shirts',   DATE '1995-12-18',  25, 2),
	(2, 'cust2', 'brown_boots',  DATE '1995-12-18', 150, 1),
	(2, 'cust2', 'jackets',      DATE '1995-12-18', 300, 1),
	(3, 'cust1', 'jackets',      DATE '1995-12-18', 300, 1),
	(4, 'cust2', 'col_shirts',   DATE '1995-12-19',  25, 3),
	(4, 'cust2', 'jackets',      DATE '1995-12-19', 300, 2);`

var figure2b = []string{
	"{brown_boots} => {col_shirts} (s=0.5, c=1)",
	"{brown_boots, jackets} => {col_shirts} (s=0.5, c=1)",
	"{jackets} => {col_shirts} (s=0.5, c=0.5)",
}

// checkFigure2b runs the paper's worked example once and requires
// exactly the three rules of Figure 2.b.
func checkFigure2b(rep *Report) {
	sys, err := minerule.Open()
	if err == nil {
		err = sys.ExecScript(figure1)
	}
	var got []string
	if err == nil {
		var res *minerule.MiningResult
		res, err = sys.Mine(strings.Replace(purchaseStatement, "SUPPORT: 0.02", "SUPPORT: 0.2", 1))
		if err == nil {
			for _, r := range res.Rules {
				got = append(got, r.String())
			}
		}
	}
	ok := err == nil && len(got) == len(figure2b)
	if ok {
		want := DigestRules(figure2b)
		ok = DigestRules(got) == want
	}
	rep.Check(ok, "figure 2.b: err=%v rules=%q", err, got)
}

// embedded describes one in-memory workload.
type embedded struct {
	statement string
	datasets  int
	load      func(sys *minerule.System, seed int64) error
	// reference mines the statement by an independent route.
	reference func(sys *minerule.System, statement string) (RuleSet, error)
}

func runBasketSimple(o options, rep *Report) error {
	return runEmbedded(o, rep, embedded{
		statement: fmt.Sprintf(basketStatement, "BasketRules", "Baskets", 0.02),
		datasets:  basketDatasets,
		load: func(sys *minerule.System, seed int64) error {
			_, err := gen.LoadBaskets(sys.DB(), "Baskets", gen.BasketConfig{
				Groups: basketGroups, AvgSize: 10, AvgPatternLen: 4, Items: basketItems, Seed: seed,
			})
			return err
		},
		// The bitmap pool member: vertical packed bitsets instead of
		// the default gid-list apriori.
		reference: func(sys *minerule.System, stmt string) (RuleSet, error) {
			res, err := sys.Mine(stmt, minerule.WithReplaceOutput(), minerule.WithAlgorithm(minerule.Bitmap))
			if err != nil {
				return RuleSet{}, err
			}
			return resultSet(res), nil
		},
	})
}

func runPurchaseGeneral(o options, rep *Report) error {
	return runEmbedded(o, rep, embedded{
		statement: purchaseStatement,
		datasets:  purchaseDatasets,
		load: func(sys *minerule.System, seed int64) error {
			_, err := gen.LoadPurchases(sys.DB(), "Purchase", gen.PurchaseConfig{
				Customers: purchaseCusts, DatesPerCust: purchaseDates, ItemsPerDate: purchasePerDay,
				Items: purchaseItems, Seed: seed,
			})
			return err
		},
		// The engine's row-at-a-time reference executor instead of the
		// batched one, for every Q-step.
		reference: func(sys *minerule.System, stmt string) (RuleSet, error) {
			sys.DB().RowMode(true)
			defer sys.DB().RowMode(false)
			res, err := sys.Mine(stmt, minerule.WithReplaceOutput())
			if err != nil {
				return RuleSet{}, err
			}
			return resultSet(res), nil
		},
	})
}

// resultSet digests an embedded mining result.
func resultSet(res *minerule.MiningResult) RuleSet {
	keys := make([]string, len(res.Rules))
	for i, r := range res.Rules {
		keys[i] = RuleKey(RenderSide(r.Body), RenderSide(r.Head), r.Support, r.Confidence)
	}
	return DigestRules(keys)
}

// datasetSeed is the generator seed of data set i of n in a run: the n
// inputs of one --seed are disjoint from those of any other seed.
func datasetSeed(seed int64, i, n int) int64 { return seed*int64(n) + int64(i) + 1 }

func runEmbedded(o options, rep *Report, w embedded) error {
	systems := make([]*minerule.System, w.datasets)
	var setups []float64
	for i := range systems {
		// Collect the previous data set's garbage outside the timing.
		runtime.GC()
		t0 := time.Now()
		s, err := minerule.Open()
		if err == nil {
			err = w.load(s, datasetSeed(o.seed, i, w.datasets))
		}
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		systems[i] = s
	}
	rep.Set("setup_s", Median(setups), len(setups))
	rep.Set("gen.load_s", Median(setups), len(setups))

	refs := make([]RuleSet, w.datasets)
	for i, s := range systems {
		ref, err := w.reference(s, w.statement)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		refs[i] = ref
		fmt.Printf("reference %d: %s\n", i, ref)
	}
	mine := func(i int) float64 {
		k := i % w.datasets
		t0 := time.Now()
		res, err := systems[k].Mine(w.statement, minerule.WithReplaceOutput())
		d := ms(time.Since(t0))
		if rep.Check(err == nil, "mine: %v", err) {
			got := resultSet(res)
			rep.Check(got == refs[k], "mine on data set %d: got %s, want %s", k, got, refs[k])
		}
		return d
	}
	for i := 0; i < w.datasets; i++ {
		mine(i)
	}

	if !o.trace {
		lat, p0, p1 := measure(o.deadline(1), minP90, w.datasets, mine)
		return setMineMetrics(rep, lat, p0, p1)
	}

	// Traced run: an untraced phase gives the latency the spans are
	// reconciled against and the per-mine engine counters; the traced
	// phase then drives the layers one by one.
	m0 := snapshot(systems)
	lat, p0, p1 := measure(o.deadline(0.45), minTraced, w.datasets, mine)
	setEngineCounters(rep, m0, snapshot(systems), len(lat), p0, p1)
	untraced := Median(lat)
	rep.Set("trace.mine_ms_p50", untraced, len(lat))
	rep.Set("mine.solo_ms_p50", untraced, len(lat))

	var first *tracedMine
	traced, _, _ := measure(o.deadline(0.45), minTraced, w.datasets, func(op int) float64 {
		k := op % w.datasets
		tm, err := traceMine(rep, op, systems[k].DB(), w.statement, nil)
		if !rep.Check(err == nil, "traced mine: %v", err) {
			return 0
		}
		if tm.simple {
			got := DigestRules(tm.keys)
			rep.Check(got == refs[k], "traced mine on data set %d: got %s, want %s", k, got, refs[k])
		}
		if op == 0 {
			first = tm
		}
		return ms(tm.total)
	})
	if first == nil {
		return fmt.Errorf("the first traced mine failed")
	}
	overhead := Median(traced) - untraced
	if !first.simple {
		// A traced general operation stops after preprocessing; its
		// overhead is its wall time beyond the spans it recorded.
		overhead = Median(traced) - rep.SpanSum(layerSpans)
	}
	setLayerMetrics(rep, first, untraced, overhead, len(traced))
	probeAfterTrace(rep, systems[0], w.statement)
	zeroServedOnly(rep)
	return nil
}

// snapshot sums the engine counters of several systems.
func snapshot(systems []*minerule.System) map[string]int64 {
	out := map[string]int64{}
	for _, s := range systems {
		for k, v := range s.DB().Metrics().Snapshot() {
			out[k] += v
		}
	}
	return out
}

// measure calls op(0), op(1), ... until the deadline has passed, at
// least min samples exist and the count is a multiple of every, the
// number of data sets op rotates over, returning the results and the
// process state around the loop. Whole rotations keep per-mine counts
// exactly repeatable for a seed.
func measure(deadline time.Time, min, every int, op func(i int) float64) ([]float64, ProcSample, ProcSample) {
	var lat []float64
	p0 := SampleProc()
	for i := 0; i < min || i%every != 0 || time.Now().Before(deadline); i++ {
		lat = append(lat, op(i))
	}
	return lat, p0, SampleProc()
}

// setMineMetrics records the end-to-end mine metrics from one measured
// loop of n mines.
func setMineMetrics(rep *Report, lat []float64, p0, p1 ProcSample) error {
	n := len(lat)
	p90, err := Percentile(lat, 90)
	if err != nil {
		return fmt.Errorf("mine_ms_p90: %w", err)
	}
	rep.Set("mine_ms_p50", Median(lat), n)
	rep.Set("mine_ms_p90", p90, n)
	rep.Set("mine_cpu_ms", ms(p1.CPU-p0.CPU)/float64(n), n)
	rep.Set("alloc_mb_per_mine", float64(p1.TotalAlloc-p0.TotalAlloc)/(1<<20)/float64(n), n)
	rep.Set("maxrss_mb", float64(p1.MaxRSSKB)/1024, 1)
	return nil
}

// setEngineCounters records the per-mine engine and runtime counters of
// an untraced loop of n mines.
func setEngineCounters(rep *Report, m0, m1 map[string]int64, n int, p0, p1 ProcSample) {
	d := func(k string) float64 { return float64(m1["minerule_"+k] - m0["minerule_"+k]) }
	per := func(k string) float64 { return d(k) / float64(n) }
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	rep.Set("engine.stmts_per_mine", per("stmt_executed_total"), n)
	rep.Set("engine.stmtcache_hit_ratio", ratio(d("stmtcache_hits_total"), d("stmtcache_misses_total")), n)
	rep.Set("exec.viewplan_hit_ratio", ratio(d("viewplan_hits_total"), d("viewplan_misses_total")), n)
	rep.Set("exec.rows_scanned_per_mine", per("rows_scanned_total"), n)
	batchRows := 0.0
	if b := d("exec_batches_total"); b > 0 {
		batchRows = d("exec_batch_rows_total") / b
	}
	rep.Set("exec.batch_rows_avg", batchRows, n)
	rep.Set("go.gc_cycles_per_mine", float64(p1.NumGC-p0.NumGC)/float64(n), n)
	share := 0.0
	if gc, user := p1.GCCPU-p0.GCCPU, p1.UserCPU-p0.UserCPU; gc+user > 0 {
		share = gc / (gc + user)
	}
	rep.Set("go.gc_cpu_share", share, n)
}

// setLayerMetrics records the span medians of the traced phase and the
// reconciliation against the untraced latency; overhead is the traced
// latency minus the untraced one on the same route. Counts come from
// first, the traced mine of data set 0, so they repeat exactly for a
// seed.
func setLayerMetrics(rep *Report, first *tracedMine, untraced, overhead float64, n int) {
	med := rep.SpanMedians()
	for _, s := range layerSpans {
		if s == "mrparse.parse" {
			rep.Set("mrparse.parse_us", 1000*med[s], n)
		} else {
			rep.Set(s+"_ms", med[s], n)
		}
	}
	rows := map[string]float64{}
	for _, s := range first.pre.StepDurations {
		rows[s.Name] += float64(s.Rows)
	}
	for _, name := range preprocSteps {
		rep.Set("preproc."+name+"_ms", med["preproc."+name], n)
		rep.Set("preproc."+name+"_rows", rows[name], 1)
	}
	if first.simple {
		var cand, large float64
		for _, p := range first.bud.Passes() {
			cand += float64(p.Candidates)
			large += float64(p.Large)
		}
		share := 0.0
		if cand > 0 {
			share = large / cand
		}
		rep.Set("mining.candidates", float64(first.bud.Used()), 1)
		rep.Set("mining.passes", float64(len(first.bud.Passes())), 1)
		rep.Set("mining.large_per_candidate", share, 1)
		rep.Set("core.general_rest_ms", 0, 0)
	} else {
		for _, k := range []string{"mining.candidates", "mining.passes", "mining.large_per_candidate"} {
			rep.Set(k, 0, 0)
		}
	}
	sum := rep.SpanSum(layerSpans)
	if !first.simple {
		// The general path's input reader, rule lattice, postprocessor
		// and rule read run inside System.Mine only: their share is the
		// untraced latency the spans leave unexplained.
		rep.Set("core.general_rest_ms", untraced-sum, n)
		fmt.Println("reconcile: general path: the unaccounted part is core.general_rest_ms (input reader, rule lattice, postprocessing, rule read)")
	}
	reconcile(rep, sum, untraced, overhead, n)
}

// reconcile prints and records how much of the untraced mine latency
// the layer spans account for, and what tracing itself costs.
func reconcile(rep *Report, sum, untraced, overhead float64, n int) {
	share := 0.0
	if untraced > 0 {
		share = sum / untraced
	}
	rep.Set("trace.span_sum_ms", sum, n)
	rep.Set("trace.accounted_share", share, n)
	rep.Set("trace.unaccounted_ms", untraced-sum, n)
	rep.Set("trace.overhead_ms", overhead, n)
	fmt.Printf("reconcile: spans %.3f ms of untraced mine_ms_p50 %.3f ms (%.1f%%), unaccounted %.3f ms, tracing overhead %.3f ms\n",
		sum, untraced, 100*share, untraced-sum, overhead)
}

// probeAfterTrace runs the one-off layer probes: the SQL front end over
// this statement's Q-step texts (taken while its working tables exist)
// and the wire codec over its rule rows.
func probeAfterTrace(rep *Report, sys *minerule.System, statement string) {
	_, err := traceMine(NewReport(), 0, sys.DB(), statement, func(steps []stepText) {
		probeSQL(rep, sys.DB(), steps)
	})
	rep.Check(err == nil, "probe mine: %v", err)
	res, err := sys.Mine(statement, minerule.WithReplaceOutput())
	if !rep.Check(err == nil, "probe mine: %v", err) {
		return
	}
	rows := make([][4]any, len(res.Rules))
	for i, r := range res.Rules {
		rows[i] = [4]any{RenderSide(r.Body), RenderSide(r.Head), r.Support, r.Confidence}
	}
	err = probeWire(rep, rows)
	rep.Check(err == nil, "wire probe: %v", err)
}
