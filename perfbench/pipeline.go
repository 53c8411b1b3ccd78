package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"minerule"
	"minerule/internal/core"
	"minerule/internal/kernel/postproc"
	"minerule/internal/kernel/preproc"
	"minerule/internal/kernel/translator"
	mrparse "minerule/internal/minerule/parse"
	"minerule/internal/mining"
	"minerule/internal/server/wire"
	"minerule/internal/sql/engine"
	sqlparse "minerule/internal/sql/parse"
)

// The traced run re-drives the kernel of Figure 3.a from the benchmark's
// side, one public layer entry point at a time, with a span around each
// call: MINE RULE parse, translator (with its self-check), preprocessor
// Q-steps, core input read, itemset mining, rule generation,
// postprocessor store and decode, working-table drop, and the decoded
// rule read that System.Mine also performs. The sequence mirrors
// core.MineContext with the default pool member and no limits.

// preprocSteps are the preprocessor's Q-step names, as reported in
// preproc.Result.StepDurations. Q5 is left out: no workload's
// statement needs it, so it would read 0 everywhere.
var preprocSteps = []string{"Q0", "Q1", "Q2", "Q3", "Q4", "Q6", "Q7", "Q8", "Q9", "Q10", "output"}

// layerSpans are the spans whose medians the reconciliation sums: the
// direct children of one traced mine, without overlap.
var layerSpans = []string{
	"mrparse.parse", "translator.translate", "core.prepare_outputs", "preproc.run",
	"core.read_input", "mining.itemsets", "mining.rules",
	"postproc.store", "postproc.decode", "preproc.drop", "core.read_rules",
}

// tracedMine is what one traced operation leaves besides its spans.
type tracedMine struct {
	keys   []string // canonical rule keys (simple path only)
	pre    *preproc.Result
	bud    *mining.Budget
	total  time.Duration
	simple bool
}

type stepText struct{ name, sql string }

// traceMine runs statement once through the layers as operation op.
// For a general statement the core input reader has no public entry
// point, so the operation stops after preprocessing (and drops the
// working tables); the remainder is derived from the untraced latency.
// When probe is non-nil it is called, outside any span, right after
// preprocessing with the bound Q-step texts while the working tables
// exist.
func traceMine(rep *Report, op int, db *engine.Database, statement string, probe func([]stepText)) (*tracedMine, error) {
	ctx := minerule.ContextWithLimits(context.Background(), minerule.Limits{})
	out := &tracedMine{}
	t0 := time.Now()
	span := func(name string, fn func() error) error {
		_, err := rep.Time(op, name, "mine", fn)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var tr *translator.Translation
	res := &core.Result{}
	err := span("mrparse.parse", func() (err error) {
		res.Statement, err = mrparse.Parse(statement)
		return err
	})
	if err == nil {
		err = span("translator.translate", func() (err error) {
			tr, err = translator.Translate(db, res.Statement)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	out.simple = tr.Class.Simple()
	res.OutputTable, res.BodiesTable, res.HeadsTable = tr.Names.Output, tr.Names.OutputBodyT, tr.Names.OutputHeadT
	err = span("core.prepare_outputs", func() error {
		for _, t := range []string{res.OutputTable, res.BodiesTable, res.HeadsTable} {
			if db.Catalog().Exists(t) {
				if _, err := db.Exec("DROP TABLE " + t); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err == nil {
		err = span("preproc.run", func() (err error) {
			out.pre, err = preproc.Run(ctx, db, tr)
			return err
		})
	}
	if err != nil {
		preproc.Drop(db, tr)
		return nil, err
	}
	var off time.Duration
	for _, s := range out.pre.StepDurations {
		rep.Child(op, "preproc."+s.Name, "preproc.run", off, s.Duration)
		off += s.Duration
	}
	if probe != nil {
		probe(boundSteps(tr, out.pre))
	}
	if !out.simple {
		err = span("preproc.drop", func() error { preproc.Drop(db, tr); return nil })
		out.total = time.Since(t0)
		return out, err
	}
	st := res.Statement
	var in *mining.SimpleInput
	var sets []mining.Itemset
	var rules []mining.Rule
	out.bud = mining.NewBudget(ctx, 0)
	mopts := mining.Options{
		MinSupport:    st.MinSupport,
		MinConfidence: st.MinConfidence,
		BodyCard:      mining.Card{Min: st.Body.Card.Min, Max: st.Body.Card.Max},
		HeadCard:      mining.Card{Min: st.Head.Card.Min, Max: st.Head.Card.Max},
		Budget:        out.bud,
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"core.read_input", func() (err error) { in, err = readCoded(db, tr, out.pre.Totg); return err }},
		{"mining.itemsets", func() error {
			sets = mining.Apriori{}.LargeItemsets(in, mining.MinCount(st.MinSupport, in.TotalGroups), out.bud)
			return out.bud.Err()
		}},
		{"mining.rules", func() error { rules = mining.GenerateRules(sets, mopts, in.TotalGroups); return nil }},
		{"postproc.store", func() error { return postproc.StoreEncoded(ctx, db, tr, rules) }},
		{"postproc.decode", func() error { return postproc.Decode(ctx, db, tr) }},
		{"preproc.drop", func() error { preproc.Drop(db, tr); return nil }},
		{"core.read_rules", func() error {
			decoded, err := core.ReadRules(db, res)
			for _, d := range decoded {
				out.keys = append(out.keys, RuleKey(RenderSide(d.Body), RenderSide(d.Head), d.Support, d.Confidence))
			}
			return err
		}},
	}
	for _, s := range steps {
		if err := span(s.name, s.fn); err != nil {
			preproc.Drop(db, tr)
			return nil, err
		}
	}
	out.total = time.Since(t0)
	return out, nil
}

// readCoded loads CodedSource the way the core's unbudgeted path does:
// straight from the table snapshot into (gid, item) pairs.
func readCoded(db *engine.Database, tr *translator.Translation, totg int) (*mining.SimpleInput, error) {
	t, ok := db.Catalog().Table(tr.Names.CodedSource)
	if !ok {
		return nil, fmt.Errorf("no %s table", tr.Names.CodedSource)
	}
	sch := t.Schema()
	gidOrd, err := sch.Resolve("", "mr_gid")
	if err != nil {
		return nil, err
	}
	bidOrd, err := sch.Resolve("", "mr_bid")
	if err != nil {
		return nil, err
	}
	rows := t.Snapshot()
	gids := make([]int64, len(rows))
	items := make([]mining.Item, len(rows))
	for i, row := range rows {
		gids[i] = row[gidOrd].Int()
		items[i] = mining.Item(row[bidOrd].Int())
	}
	return mining.NewSimpleInputFromPairs(gids, items, totg), nil
}

// boundSteps lists the translator's preprocessing statements with the
// :mingroups and :totg placeholders bound to this run's values.
func boundSteps(tr *translator.Translation, pre *preproc.Result) []stepText {
	r := strings.NewReplacer(":mingroups", strconv.Itoa(pre.MinGroups), ":totg", strconv.Itoa(pre.Totg))
	var out []stepText
	for _, s := range tr.Program.Steps() {
		out = append(out, stepText{s.Name, r.Replace(s.SQL)})
	}
	return out
}

// probeSQL times the SQL front end over the Q-step texts: parse alone,
// then a cold prepare (text never seen by the statement cache, made
// unique by a trailing comment) and a warm one (same text again).
// Prepares run while the working tables of the step exist, so only the
// texts semck accepts at that point count; n reports how many.
func probeSQL(rep *Report, db *engine.Database, steps []stepText) {
	const reps = 20
	var parseTotal time.Duration
	for i := 0; i < reps; i++ {
		for _, s := range steps {
			t0 := time.Now()
			_, _ = sqlparse.Parse(s.sql)
			parseTotal += time.Since(t0)
		}
	}
	var cold, warm []float64
	for _, s := range steps {
		text := s.sql + " /* perfbench cold prepare */"
		t0 := time.Now()
		if err := db.Prepare(text); err != nil {
			continue
		}
		cold = append(cold, us(time.Since(t0)))
		t0 = time.Now()
		if err := db.Prepare(text); err != nil {
			continue
		}
		warm = append(warm, us(time.Since(t0)))
	}
	n := len(steps) * reps
	if n > 0 {
		rep.Set("sql.parse_us_per_stmt", us(parseTotal)/float64(n), n)
	}
	rep.Set("engine.prepare_cold_us_per_stmt", Median(cold), len(cold))
	rep.Set("engine.prepare_warm_us_per_stmt", Median(warm), len(warm))
}

// probeWire times the wire codec over rule-shaped rows: a RuleRow
// payload (body, head, support, confidence) built and framed, then read
// and parsed back. Reports ns per row for each direction.
func probeWire(rep *Report, rows [][4]any) error {
	if len(rows) == 0 {
		return fmt.Errorf("wire probe: no rows")
	}
	const reps = 20
	var buf bytes.Buffer
	var enc, dec time.Duration
	for i := 0; i < reps; i++ {
		buf.Reset()
		t0 := time.Now()
		for _, r := range rows {
			var b wire.Builder
			b.PutU16(4)
			for _, v := range r {
				b.PutValue(v)
			}
			if err := wire.WriteFrame(&buf, wire.MsgRuleRow, b.B); err != nil {
				return err
			}
		}
		enc += time.Since(t0)
		t0 = time.Now()
		for range rows {
			_, payload, err := wire.ReadFrame(&buf)
			if err != nil {
				return err
			}
			p := wire.Parser{B: payload}
			n := int(p.U16())
			for j := 0; j < n; j++ {
				p.Value()
			}
			if err := p.Err(); err != nil {
				return err
			}
		}
		dec += time.Since(t0)
	}
	n := len(rows) * reps
	rep.Set("wire.encode_ns_per_row", float64(enc.Nanoseconds())/float64(n), n)
	rep.Set("wire.decode_ns_per_row", float64(dec.Nanoseconds())/float64(n), n)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
