package mining

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"minerule/internal/gen"
	"minerule/internal/resource"
)

// poolMiners are the exact-algorithm pool members checked against the
// gid-list reference. Sampling is included because its negative-border
// verification makes it exact, and the fixed Seed makes it
// deterministic.
func poolMiners() []ItemsetMiner {
	return []ItemsetMiner{
		Bitmap{},
		Horizontal{},
		Horizontal{Hashing: true},
		AprioriTid{},
		AprioriHybrid{},
		Partition{Partitions: 4},
		Sampling{Fraction: 0.5, Seed: 11},
	}
}

func randomInput(rng *rand.Rand) (*SimpleInput, int) {
	groups := 1 + rng.Intn(120)
	items := 2 + rng.Intn(40)
	byGroup := make(map[int64][]Item, groups)
	for g := int64(1); g <= int64(groups); g++ {
		n := rng.Intn(12)
		tx := make([]Item, n)
		for i := range tx {
			tx[i] = Item(rng.Intn(items))
		}
		byGroup[g] = tx
	}
	minCount := 1 + rng.Intn(5)
	return NewSimpleInput(byGroup, groups), minCount
}

// TestMinerEquivalence is the determinism property test: every pool
// miner must return byte-identical itemsets (sets, counts AND ordering)
// to the gid-list reference on randomized inputs, both single-threaded and
// at full parallel width. GOMAXPROCS is swapped process-wide, so this
// test must not run in parallel with others.
func TestMinerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	widths := []int{1, runtime.GOMAXPROCS(0)}
	for trial := 0; trial < 25; trial++ {
		in, minCount := randomInput(rng)
		want := referenceApriori{}.LargeItemsets(in, minCount, nil)
		for _, width := range widths {
			prev := runtime.GOMAXPROCS(width)
			for _, m := range poolMiners() {
				got := m.LargeItemsets(in, minCount, nil)
				if !reflect.DeepEqual(got, want) {
					runtime.GOMAXPROCS(prev)
					t.Fatalf("trial %d: %s at GOMAXPROCS=%d diverged from the reference:\n got %v\nwant %v",
						trial, m.Name(), width, got, want)
				}
			}
			// The default member must also be width-independent.
			if got := (Apriori{}).LargeItemsets(in, minCount, nil); !reflect.DeepEqual(got, want) {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("trial %d: apriori at GOMAXPROCS=%d diverged from the reference", trial, width)
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// denseInput builds an input large and dense enough that mining runs
// many levels with large candidate sets — the budget/cancel promptness
// tests need passes that actually fan out.
func denseInput() *SimpleInput {
	rng := rand.New(rand.NewSource(7))
	byGroup := make(map[int64][]Item, 400)
	for g := int64(1); g <= 400; g++ {
		tx := make([]Item, 14)
		for i := range tx {
			tx[i] = Item(rng.Intn(40))
		}
		byGroup[g] = tx
	}
	return NewSimpleInput(byGroup, 400)
}

// TestParallelBudgetTrip proves a tripped candidate budget stops the
// parallel passes promptly with the trip recorded, for every miner.
func TestParallelBudgetTrip(t *testing.T) {
	in := denseInput()
	miners := append(poolMiners(), Apriori{})
	for _, m := range miners {
		bud := NewBudget(context.Background(), 50)
		done := make(chan []Itemset, 1)
		go func() { done <- m.LargeItemsets(in, 2, bud) }()
		select {
		case sets := <-done:
			if err := bud.Err(); !errors.Is(err, resource.ErrBudgetExceeded) {
				t.Errorf("%s: budget err = %v, want ErrBudgetExceeded", m.Name(), err)
			}
			_ = sets // partial results are allowed; only the stop matters
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: did not stop after budget trip", m.Name())
		}
	}
}

// TestParallelContextCancel proves an already-canceled context stops the
// parallel workers promptly with a cancellation recorded.
func TestParallelContextCancel(t *testing.T) {
	in := denseInput()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	miners := append(poolMiners(), Apriori{})
	for _, m := range miners {
		bud := NewBudget(ctx, 0)
		done := make(chan struct{})
		go func() { m.LargeItemsets(in, 2, bud); close(done) }()
		select {
		case <-done:
			if err := bud.Err(); !errors.Is(err, resource.ErrCanceled) {
				t.Errorf("%s: budget err = %v, want ErrCanceled", m.Name(), err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: did not stop after context cancel", m.Name())
		}
	}
}

// basketInput generates the benchmark's basket shape: Quest T10.I4 over
// N=500 items with D groups.
func basketInput(groups int, seed int64) *SimpleInput {
	txs := gen.Baskets(gen.BasketConfig{Groups: groups, AvgSize: 10, AvgPatternLen: 4, Items: 500, Seed: seed})
	byGroup := make(map[int64][]Item, len(txs))
	for g, tx := range txs {
		items := make([]Item, len(tx))
		for i, it := range tx {
			items[i] = Item(it)
		}
		byGroup[int64(g)] = items
	}
	return NewSimpleInput(byGroup, len(txs))
}

// coreMembers is every pool member in the configuration the core runs
// it with.
func coreMembers() []ItemsetMiner {
	return []ItemsetMiner{
		Apriori{}, Bitmap{}, Horizontal{}, Horizontal{Hashing: true},
		AprioriTid{}, AprioriHybrid{}, Partition{}, Sampling{},
	}
}

// TestPoolMatchesReferenceOnBasketShape checks every pool member against
// the gid-list reference on the data shape the repository benchmark
// mines (T10.I4, N=500): D=8000 at s=0.02, and D=2000 at s=0.005, which
// reaches longer itemsets. Sets, counts and order must be identical.
func TestPoolMatchesReferenceOnBasketShape(t *testing.T) {
	for _, c := range []struct {
		groups  int
		support float64
	}{{8000, 0.02}, {2000, 0.005}} {
		in := basketInput(c.groups, 29)
		minCount := MinCount(c.support, in.TotalGroups)
		want := referenceApriori{}.LargeItemsets(in, minCount, nil)
		if len(want) == 0 || len(want[len(want)-1].Items) < 3 {
			t.Fatalf("D=%d s=%g: reference found too little to compare (%d sets)", c.groups, c.support, len(want))
		}
		for _, m := range coreMembers() {
			if got := m.LargeItemsets(in, minCount, nil); !reflect.DeepEqual(got, want) {
				t.Errorf("D=%d s=%g: %s found %d sets, reference %d", c.groups, c.support, m.Name(), len(got), len(want))
			}
		}
	}
}

// TestPassStatsDeterministic: every member must record the same passes
// and charge the same candidates whatever the pool width, so the trace
// and the benchmark's pass metrics repeat. GOMAXPROCS is swapped
// process-wide, so this test must not run in parallel with others.
func TestPassStatsDeterministic(t *testing.T) {
	in := basketInput(2000, 3)
	minCount := MinCount(0.02, in.TotalGroups)
	for _, m := range coreMembers() {
		var passes [2][]PassStat
		var used [2]int64
		for i, width := range []int{1, runtime.GOMAXPROCS(0)} {
			prev := runtime.GOMAXPROCS(width)
			bud := NewBudget(context.Background(), 0)
			m.LargeItemsets(in, minCount, bud)
			runtime.GOMAXPROCS(prev)
			passes[i], used[i] = bud.Passes(), bud.Used()
		}
		if len(passes[0]) == 0 {
			t.Errorf("%s: no passes recorded", m.Name())
		}
		if !reflect.DeepEqual(passes[0], passes[1]) || used[0] != used[1] {
			t.Errorf("%s: passes %v (%d charged) at GOMAXPROCS=1, %v (%d charged) at full width",
				m.Name(), passes[0], used[0], passes[1], used[1])
		}
	}
}
