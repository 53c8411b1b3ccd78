package mining

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minParallelLevel is the smallest level (in entries) whose join is
// worth fanning out: below it the goroutine hand-off costs more than the
// join itself, so joinRuns runs it sequentially.
const minParallelLevel = 64

// parallelFor runs fn(i) for every i in [0, n) on a bounded worker pool
// sized by runtime.GOMAXPROCS. Work is handed out through an atomic
// cursor, so uneven unit costs balance automatically. The callers keep
// output deterministic by writing into per-index slots and merging in
// index order afterwards.
//
// A tripped budget stops the hand-out: workers drain (no new unit starts
// once bud.Stop reports true) and the call returns with the remaining
// units unprocessed — the same partial-result contract the sequential
// passes have at their budget checks. A nil bud never stops.
//
// A panic inside fn is captured and re-raised on the calling goroutine
// after all workers have stopped, so the recover boundaries at the exec
// and core layers keep containing mining bugs.
func parallelFor(n int, bud *Budget, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if bud.Stop() {
				return
			}
			fn(i)
		}
		return
	}
	bud.noteWorkers(workers)
	var (
		cursor   atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicked.CompareAndSwap(nil, p)
				}
			}()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n || bud.Stop() || panicked.Load() != nil {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
}

// prefixRuns partitions the canonically-sorted level into maximal runs
// of entries sharing their first k-1 items — the unit the levelwise
// joins fan out over, because candidates are only generated within a
// run. items returns an entry's itemset.
func prefixRuns[N any](level []N, items func(N) []Item) [][2]int {
	var runs [][2]int
	for i := 0; i < len(level); {
		j := i + 1
		for j < len(level) && samePrefix(items(level[i]), items(level[j])) {
			j++
		}
		runs = append(runs, [2]int{i, j})
		i = j
	}
	return runs
}

// pairCandidates counts the candidates a join over runs examines:
// Σ C(runLen, 2). Used only for pass statistics.
func pairCandidates(runs [][2]int) int {
	c := 0
	for _, r := range runs {
		m := r[1] - r[0]
		c += m * (m - 1) / 2
	}
	return c
}

// joinRuns applies join to every prefix run of level and concatenates
// the outputs in run order, which reproduces the sequential candidate
// order at any pool width. Levels of at least minParallelLevel entries
// fan their runs out over the pool; smaller ones run sequentially.
func joinRuns[N, T any](level []N, runs [][2]int, bud *Budget, join func(run []N) []T) []T {
	results := make([][]T, len(runs))
	unit := func(ri int) { results[ri] = join(level[runs[ri][0]:runs[ri][1]]) }
	if len(level) < minParallelLevel {
		for ri := range runs {
			if bud.Stop() {
				break
			}
			unit(ri)
		}
	} else {
		parallelFor(len(runs), bud, unit)
	}
	if len(results) == 1 {
		return results[0]
	}
	var out []T
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

func samePrefix(a, b []Item) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
