package main

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"minerule"
	_ "minerule/driver"
	"minerule/internal/gen"
)

// served-mixed: durable stores served in-process on loopback, each with
// a miner and a writer connection through database/sql. There is one
// store, holding one basket table, per data set. Each round the writer
// commits commitsPerRound explicit transactions on one store and the
// miner then mines it, so the work per round, and the bytes it writes,
// are fixed. The measured loop runs the two clients in turn: with both
// busy at once the process needs every CPU of a small host, and the
// mine's latency then follows the host's other load more than the
// program. On 2 vCPUs, one busy-looping or fsync-looping process beside
// the benchmark slowed overlapped rounds 1.6-1.7x and alternating ones
// 1.25-1.35x, about as much as basket-simple (1.2-1.35x). The traced
// run overlaps the clients to measure the contention.
const (
	servedGroups    = 2000
	servedSupport   = 0.02 // at 0.01 one data set in four can yield 3x the rules of another
	commitsPerRound = 10
	writerItems     = 5
	servedStores    = 4    // data sets, one store each (see basketDatasets)
	pageSize        = 4096 // heap page bytes, for write volume
)

// servedStatement is the basket-simple statement at servedSupport.
var servedStatement = fmt.Sprintf(basketStatement, "ServedRules", "Baskets", servedSupport)

// The writer's baskets hold items outside the generated universe and
// replace each other: every transaction inserts a fresh group and
// deletes the previous one. Every committed snapshot therefore has
// servedGroups+1 groups and the same rule set, and a torn snapshot
// shows up as a wrong rule set.
func writerBasket(gid int) string {
	vals := make([]string, writerItems)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, 'writer_%d')", gid, i)
	}
	return "INSERT INTO Baskets VALUES " + strings.Join(vals, ", ")
}

// servedEnv is one durable store, its server and its two clients.
type servedEnv struct {
	dir    string
	sys    *minerule.System
	cancel context.CancelFunc
	served chan error
	db     *sql.DB
	miner  *sql.Conn
	writer *sql.Conn
	live   int     // gid of the last acknowledged writer basket
	loadS  float64 // seconds spent generating and loading the baskets
}

// openServed builds the store under dir, loads it, starts the server and
// connects both clients.
func openServed(dir string, seed int64) (env *servedEnv, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	env = &servedEnv{dir: dir, live: servedGroups + 1}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	if env.sys, err = minerule.Open(minerule.WithStorage(dir)); err != nil {
		return env, err
	}
	t0 := time.Now()
	_, err = gen.LoadBaskets(env.sys.DB(), "Baskets", gen.BasketConfig{
		Groups: servedGroups, AvgSize: 10, AvgPatternLen: 4, Items: basketItems, Seed: seed,
	})
	env.loadS = time.Since(t0).Seconds()
	if err != nil {
		return env, err
	}
	if err = env.sys.Exec(writerBasket(env.live)); err != nil {
		return env, err
	}
	// Ping is a one-row table for timing a bare round trip.
	if err = env.sys.ExecScript("CREATE TABLE Ping (x INTEGER); INSERT INTO Ping VALUES (1)"); err != nil {
		return env, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return env, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	env.cancel = cancel
	env.served = make(chan error, 1)
	go func() { env.served <- env.sys.ServeListener(ctx, ln, minerule.ServerConfig{}) }()
	if env.db, err = sql.Open("minerule", "tcp://"+ln.Addr().String()+"?mine_replace=1"); err != nil {
		return env, err
	}
	if env.miner, err = env.db.Conn(ctx); err != nil {
		return env, err
	}
	env.writer, err = env.db.Conn(ctx)
	return env, err
}

// close stops the clients and the server and closes the store; calling
// it again is a no-op.
func (e *servedEnv) close() error {
	var errs []error
	for _, c := range []*sql.Conn{e.miner, e.writer} {
		if c != nil {
			errs = append(errs, c.Close())
		}
	}
	e.miner, e.writer = nil, nil
	if e.db != nil {
		errs = append(errs, e.db.Close())
		e.db = nil
	}
	if e.cancel != nil {
		e.cancel()
		if err := <-e.served; err != nil && !errors.Is(err, context.Canceled) {
			errs = append(errs, err)
		}
		e.cancel = nil
	}
	if e.sys != nil {
		errs = append(errs, e.sys.Close())
		e.sys = nil
	}
	return errors.Join(errs...)
}

// mine runs the statement through the miner connection and returns the
// time until the last rule row arrived, with the rule set received.
func (e *servedEnv) mine(ctx context.Context) (float64, RuleSet, error) {
	type row struct {
		body, head string
		s, c       float64
	}
	var got []row
	t0 := time.Now()
	rows, err := e.miner.QueryContext(ctx, servedStatement)
	if err != nil {
		return ms(time.Since(t0)), RuleSet{}, err
	}
	for rows.Next() {
		var r row
		if err = rows.Scan(&r.body, &r.head, &r.s, &r.c); err != nil {
			break
		}
		got = append(got, r)
	}
	if err == nil {
		err = rows.Err()
	}
	rows.Close()
	d := ms(time.Since(t0))
	keys := make([]string, len(got))
	for i, r := range got {
		keys[i] = RuleKey(r.body, r.head, r.s, r.c)
	}
	return d, DigestRules(keys), err
}

// commit runs one writer transaction, BEGIN to acknowledged COMMIT.
func (e *servedEnv) commit(ctx context.Context) (float64, error) {
	prev := e.live
	t0 := time.Now()
	tx, err := e.writer.BeginTx(ctx, nil)
	if err != nil {
		return ms(time.Since(t0)), err
	}
	if _, err = tx.ExecContext(ctx, writerBasket(prev+1)); err == nil {
		_, err = tx.ExecContext(ctx, fmt.Sprintf("DELETE FROM Baskets WHERE gid = %d", prev))
	}
	if err != nil {
		_ = tx.Rollback()
		return ms(time.Since(t0)), err
	}
	err = tx.Commit()
	d := ms(time.Since(t0))
	if err == nil {
		e.live = prev + 1
	}
	return d, err
}

// round runs commitsPerRound commits and one mine: the commits first
// and then the mine, or, with overlap, the writer beside the miner. The
// writer's outcomes are checked after the round so only this goroutine
// touches the report.
func (e *servedEnv) round(ctx context.Context, ref RuleSet, rep *Report, overlap bool) (mine float64, commits []float64) {
	var wg sync.WaitGroup
	lat := make([]float64, commitsPerRound)
	errs := make([]error, commitsPerRound)
	write := func() {
		for i := range lat {
			lat[i], errs[i] = e.commit(ctx)
		}
	}
	if overlap {
		wg.Add(1)
		go func() {
			defer wg.Done()
			write()
		}()
	} else {
		write()
	}
	d, got, err := e.mine(ctx)
	wg.Wait()
	if rep.Check(err == nil, "remote mine: %v", err) {
		rep.Check(got == ref, "remote mine after writes on %s: got %s, want %s", e.dir, got, ref)
	}
	for _, err := range errs {
		rep.Check(err == nil, "commit: %v", err)
	}
	return d, lat
}

// stores are the served data sets of one run.
type stores []*servedEnv

func (s stores) systems() []*minerule.System {
	out := make([]*minerule.System, len(s))
	for i, e := range s {
		out[i] = e.sys
	}
	return out
}

// storage sums the storage counters of every store.
func (s stores) storage() minerule.StorageStats {
	var t minerule.StorageStats
	for _, e := range s {
		st := e.sys.StorageStats()
		t.WalBytes += st.WalBytes
		t.WalFsyncs += st.WalFsyncs
		t.PageWrites += st.PageWrites
		t.Checkpoints += st.Checkpoints
	}
	return t
}

func (s stores) close() {
	for _, e := range s {
		if e != nil {
			e.close()
		}
	}
}

func runServedMixed(o options, rep *Report) error {
	base := filepath.Join(o.scratch, "tmp", fmt.Sprintf("served-%d", os.Getpid()))
	defer os.RemoveAll(base)
	envs := make(stores, servedStores)
	defer envs.close()
	var setups, loads []float64
	for k := range envs {
		runtime.GC()
		t0 := time.Now()
		var err error
		if envs[k], err = openServed(filepath.Join(base, fmt.Sprint(k)), datasetSeed(o.seed, k, servedStores)); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, envs[k].loadS)
	}
	rep.Set("setup_s", Median(setups), len(setups))
	rep.Set("gen.load_s", Median(loads), len(loads))

	ctx := context.Background()
	refs := make([]RuleSet, servedStores)
	for k, e := range envs {
		res, err := e.sys.Mine(servedStatement, minerule.WithReplaceOutput())
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		refs[k] = resultSet(res)
		fmt.Printf("reference %d: %s\n", k, refs[k])
	}
	remoteMine := func(i int) float64 {
		k := i % servedStores
		d, got, err := envs[k].mine(ctx)
		if rep.Check(err == nil, "remote mine: %v", err) {
			rep.Check(got == refs[k], "remote mine on store %d: got %s, want %s", k, got, refs[k])
		}
		return d
	}
	for i := 0; i < servedStores; i++ {
		remoteMine(i)
	}

	if !o.trace {
		mines, p0, p1 := measure(o.deadline(1), minP90, servedStores, func(i int) float64 {
			d, _ := envs[i%servedStores].round(ctx, refs[i%servedStores], rep, false)
			return d
		})
		if err := setMineMetrics(rep, mines, p0, p1); err != nil {
			return err
		}
	} else if err := servedLedger(o, rep, envs, refs, remoteMine); err != nil {
		return err
	}
	checkDurable(rep, envs, refs, o.trace)
	return nil
}

// servedLedger is the traced run of served-mixed: solo phases for the
// miner and the writer, a mixed phase, the embedded mine on the same
// Systems, the traced layer pipeline and the one-off probes.
func servedLedger(o options, rep *Report, envs stores, refs []RuleSet, remoteMine func(int) float64) error {
	ctx := context.Background()
	systems := envs.systems()

	// Miner alone.
	m0, s0 := snapshot(systems), envs.storage()
	soloMine, p0, p1 := measure(o.deadline(0.15), minTraced, servedStores, remoteMine)
	m1, s1 := snapshot(systems), envs.storage()
	n := len(soloMine)
	setEngineCounters(rep, m0, m1, n, p0, p1)
	mineSolo := Median(soloMine)
	rep.Set("mine.solo_ms_p50", mineSolo, n)
	rep.Set("trace.mine_ms_p50", mineSolo, n)
	rep.Set("wal.kb_per_mine", float64(s1.WalBytes-s0.WalBytes)/1024/float64(n), n)
	rep.Set("wal.fsyncs_per_mine", float64(s1.WalFsyncs-s0.WalFsyncs)/float64(n), n)
	rep.Set("server.bytes_written_per_mine",
		float64(m1["minerule_server_bytes_written_total"]-m0["minerule_server_bytes_written_total"])/float64(n), n)

	// Writer alone.
	s0 = envs.storage()
	soloCommit, _, _ := measure(o.deadline(0.1), minTraced, servedStores, func(i int) float64 {
		d, err := envs[i%servedStores].commit(ctx)
		rep.Check(err == nil, "commit: %v", err)
		return d
	})
	s1 = envs.storage()
	n = len(soloCommit)
	commitSolo := Median(soloCommit)
	rep.Set("commit.solo_ms_p50", commitSolo, n)
	rep.Set("wal.kb_per_commit", float64(s1.WalBytes-s0.WalBytes)/1024/float64(n), n)
	rep.Set("wal.fsyncs_per_commit", float64(s1.WalFsyncs-s0.WalFsyncs)/float64(n), n)

	// Both together, overlapped.
	m0, s0 = snapshot(systems), envs.storage()
	var commits []float64
	mines, _, _ := measure(o.deadline(0.3), minTraced, servedStores, func(i int) float64 {
		d, c := envs[i%servedStores].round(ctx, refs[i%servedStores], rep, true)
		commits = append(commits, c...)
		return d
	})
	m1, s1 = snapshot(systems), envs.storage()
	d := func(k string) float64 { return float64(m1["minerule_"+k] - m0["minerule_"+k]) }
	ops := float64(len(mines) + len(commits))
	p90, err := Percentile(commits, 90)
	if err != nil {
		return fmt.Errorf("commit_ms_p90: %w", err)
	}
	rep.Set("commit_ms_p50", Median(commits), len(commits))
	rep.Set("commit_ms_p90", p90, len(commits))
	rep.Set("txn.commit_contention_ms", Median(commits)-commitSolo, len(commits))
	rep.Set("mine.contention_ms", Median(mines)-mineSolo, len(mines))
	written := float64(s1.WalBytes-s0.WalBytes) + float64(s1.PageWrites-s0.PageWrites)*pageSize
	rep.Set("write_kb_per_op", written/1024/ops, int(ops))
	rep.Set("pager.page_writes_per_op", float64(s1.PageWrites-s0.PageWrites)/ops, int(ops))
	rep.Set("storage.checkpoints_per_1k_ops", 1000*float64(s1.Checkpoints-s0.Checkpoints)/ops, int(ops))
	perGroup := 0.0
	if f := d("group_commit_fsyncs_total"); f > 0 {
		perGroup = d("group_commit_commits_total") / f
	}
	rep.Set("txn.commits_per_group_fsync", perGroup, len(commits))
	rep.Set("txn.lock_waits_per_commit", d("lock_waits_total")/float64(len(commits)), len(commits))
	rep.Set("txn.lock_timeouts", d("lock_wait_timeouts_total"), len(commits))

	// The same statement embedded, on the same Systems: what the
	// service path adds.
	embedded, _, _ := measure(o.deadline(0.1), minTraced, servedStores, func(i int) float64 {
		k := i % servedStores
		t0 := time.Now()
		res, err := systems[k].Mine(servedStatement, minerule.WithReplaceOutput())
		d := ms(time.Since(t0))
		if rep.Check(err == nil, "embedded mine: %v", err) {
			got := resultSet(res)
			rep.Check(got == refs[k], "embedded mine on store %d: got %s, want %s", k, got, refs[k])
		}
		return d
	})
	embeddedP50 := Median(embedded)
	rep.Set("service.mine_tax_ms", mineSolo-embeddedP50, len(embedded))

	var rt []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		var one int64
		err := envs[0].miner.QueryRowContext(ctx, "SELECT x FROM Ping").Scan(&one)
		rt = append(rt, us(time.Since(t0)))
		rep.Check(err == nil && one == 1, "round trip: %v", err)
	}
	rep.Set("driver.roundtrip_us", Median(rt), len(rt))

	var first *tracedMine
	traced, _, _ := measure(o.deadline(0.2), minTraced, servedStores, func(op int) float64 {
		k := op % servedStores
		tm, err := traceMine(rep, op, systems[k].DB(), servedStatement, nil)
		if !rep.Check(err == nil, "traced mine: %v", err) {
			return 0
		}
		got := DigestRules(tm.keys)
		rep.Check(got == refs[k], "traced mine on store %d: got %s, want %s", k, got, refs[k])
		if op == 0 {
			first = tm
		}
		return ms(tm.total)
	})
	if first == nil {
		return fmt.Errorf("the first traced mine failed")
	}
	setLayerMetrics(rep, first, mineSolo, Median(traced)-embeddedP50, len(traced))

	var cps []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		err := systems[0].Checkpoint()
		cps = append(cps, ms(time.Since(t0)))
		rep.Check(err == nil, "checkpoint: %v", err)
	}
	rep.Set("storage.checkpoint_ms", Median(cps), len(cps))
	probeAfterTrace(rep, systems[0], servedStatement)
	return nil
}

// checkDurable checkpoints every served store, gives it one commit and
// one mine, closes it, reopens it and checks that the last acknowledged
// writer basket, and only it, survived, with the group count unchanged.
// The measured phases end on a deadline, so without the checkpoint the
// log tail recovery replays would differ between runs of one seed. The
// traced run also records the reopen time (median over the stores) and
// the records recovery replayed (total).
func checkDurable(rep *Report, envs stores, refs []RuleSet, trace bool) {
	ctx := context.Background()
	var reopen []float64
	recovered := 0.0
	for k, env := range envs {
		if err := env.sys.Checkpoint(); !rep.Check(err == nil, "checkpoint of store %d: %v", k, err) {
			continue
		}
		_, err := env.commit(ctx)
		rep.Check(err == nil, "commit: %v", err)
		_, got, err := env.mine(ctx)
		if rep.Check(err == nil, "remote mine: %v", err) {
			rep.Check(got == refs[k], "remote mine on store %d: got %s, want %s", k, got, refs[k])
		}
		live := env.live
		if err := env.close(); !rep.Check(err == nil, "closing store %d: %v", k, err) {
			continue
		}
		t0 := time.Now()
		sys, err := minerule.Open(minerule.WithStorage(env.dir))
		reopen = append(reopen, ms(time.Since(t0)))
		if !rep.Check(err == nil, "reopening store %d: %v", k, err) {
			continue
		}
		recovered += float64(sys.StorageStats().RecoveryRecords)
		q := func(sql string) int64 {
			v, err := sys.QueryInt(sql)
			rep.Check(err == nil, "durability query %q: %v", sql, err)
			return v
		}
		writer := q(fmt.Sprintf("SELECT COUNT(*) FROM Baskets WHERE gid > %d", servedGroups))
		liveRows := q(fmt.Sprintf("SELECT COUNT(*) FROM Baskets WHERE gid = %d", live))
		groups := q("SELECT COUNT(DISTINCT gid) FROM Baskets")
		rep.Check(writer == writerItems && liveRows == writerItems && groups == servedGroups+1,
			"durability of store %d: writer rows %d, live basket %d rows (gid %d), groups %d; want %d, %d, %d",
			k, writer, liveRows, live, groups, writerItems, writerItems, servedGroups+1)
		rep.Check(sys.Close() == nil, "closing reopened store %d", k)
	}
	if trace {
		rep.Set("engine.reopen_ms", Median(reopen), len(reopen))
		rep.Set("engine.recovery_records", recovered, len(reopen))
	}
}

// zeroServedOnly records the metrics that exist only for the served,
// durable workload as 0 on the embedded ones, so every run reports the
// whole declared ledger; their sample count of 0 marks them as absent.
func zeroServedOnly(rep *Report) {
	for _, k := range servedOnly {
		if !rep.Has(k) {
			rep.Set(k, 0, 0)
		}
	}
}

var servedOnly = []string{
	"wal.kb_per_commit", "wal.kb_per_mine", "wal.fsyncs_per_commit", "wal.fsyncs_per_mine",
	"txn.commits_per_group_fsync", "storage.checkpoints_per_1k_ops", "storage.checkpoint_ms",
	"pager.page_writes_per_op", "txn.lock_waits_per_commit", "txn.lock_timeouts",
	"commit.solo_ms_p50", "txn.commit_contention_ms", "mine.contention_ms",
	"service.mine_tax_ms", "driver.roundtrip_us", "server.bytes_written_per_mine",
	"engine.reopen_ms", "engine.recovery_records",
	"commit_ms_p50", "commit_ms_p90", "write_kb_per_op",
}
