package mining

import (
	"math/bits"
	"sort"
)

// covers is the simple pool's one counting substrate: the paper's
// "associated list that contains identifiers of groups" (§4.3.1) packed
// one bit per group. bits[i] is the cover of the frequent singleton
// items[i] (bit g set when group index g contains it), ⌈groups/64⌉
// words long. Only singletons reaching minCount get a cover: an itemset
// holding any other item cannot be large.
type covers struct {
	words    int
	items    []Item       // frequent singletons, ascending
	counts   []int        // group count of items[i]
	bits     [][]uint64   // cover of items[i]
	index    map[Item]int // items[i] → i
	distinct int          // distinct items in the input: pass 1's candidates
}

// newCovers counts the singletons of in and packs the covers of those
// reaching minCount, carved from one backing array.
func newCovers(in *SimpleInput, minCount int) *covers {
	counts := make(map[Item]int)
	for _, tx := range in.Groups {
		for _, it := range tx {
			counts[it]++
		}
	}
	cv := &covers{words: (len(in.Groups) + 63) / 64, distinct: len(counts)}
	for it, c := range counts {
		if c >= minCount {
			cv.items = append(cv.items, it)
		}
	}
	sort.Slice(cv.items, func(i, j int) bool { return cv.items[i] < cv.items[j] })
	cv.index = make(map[Item]int, len(cv.items))
	cv.counts = make([]int, len(cv.items))
	cv.bits = make([][]uint64, len(cv.items))
	backing := make([]uint64, len(cv.items)*cv.words)
	for i, it := range cv.items {
		cv.index[it] = i
		cv.counts[i] = counts[it]
		cv.bits[i] = backing[i*cv.words : (i+1)*cv.words : (i+1)*cv.words]
	}
	for g, tx := range in.Groups {
		for _, it := range tx {
			if i, ok := cv.index[it]; ok {
				cv.bits[i][g>>6] |= 1 << (uint(g) & 63)
			}
		}
	}
	return cv
}

// cover writes the intersection of the given covers into dst and
// returns its popcount: the number of groups holding the itemset whose
// item (or parent) covers they are. It is the pool's only support
// count; every member reaches it, either through the levelwise join or
// through countSets.
func cover(dst []uint64, parts ...[]uint64) int {
	acc := parts[0]
	for _, p := range parts[1:max(1, len(parts)-1)] {
		p = p[:len(acc)]
		for w, x := range acc {
			dst[w] = x & p[w]
		}
		acc = dst
	}
	last, dst := parts[len(parts)-1][:len(acc)], dst[:len(acc)]
	n := 0
	for w, x := range acc {
		x &= last[w]
		dst[w] = x
		n += bits.OnesCount64(x)
	}
	return n
}

// countSets returns the group count of every set, fanning chunks of the
// list out over the worker pool. A set holding an item without a cover
// counts 0: it cannot be large, and no strategy needs its exact count.
// When the budget trips, the chunks not yet counted stay 0 and the
// caller must consult bud before trusting the counts.
func (cv *covers) countSets(sets [][]Item, bud *Budget) []int {
	const chunk = 64
	counts := make([]int, len(sets))
	parallelFor((len(sets)+chunk-1)/chunk, bud, func(c int) {
		if !bud.Charge(0) { // poll cancellation between chunks
			return
		}
		dst := make([]uint64, cv.words)
		var parts [][]uint64
		for i := c * chunk; i < min((c+1)*chunk, len(sets)); i++ {
			parts = parts[:0]
			for _, it := range sets[i] {
				j, ok := cv.index[it]
				if !ok {
					break
				}
				parts = append(parts, cv.bits[j])
			}
			if len(parts) == len(sets[i]) {
				counts[i] = cover(dst, parts...)
			}
		}
	})
	return counts
}

// levelwise is the Apriori strategy of §4.3.1: level k+1 is the
// prefix-run join of level k, a candidate's cover is the AND of its two
// parents' covers, and only candidates reaching minCount are kept (the
// all-subsets prune is implied: every prefix-sharing pair is tried).
// The budget is charged once per level with the level's size, so a trip
// stops the growth at the next pass boundary. record selects whether
// the passes go to bud's statistics; a strategy mining a partition or a
// sample as one step of its own leaves them out. The output is
// canonically sorted by construction.
func levelwise(cv *covers, minCount int, bud *Budget, record bool) []Itemset {
	type node struct {
		items []Item
		bits  []uint64
		count int
	}
	nodeItems := func(n node) []Item { return n.items }
	level := make([]node, len(cv.items))
	for i, it := range cv.items {
		level[i] = node{items: []Item{it}, bits: cv.bits[i], count: cv.counts[i]}
	}
	cand := cv.distinct
	var out []Itemset
	for k := 1; len(level) > 0; k++ {
		for _, n := range level {
			out = append(out, Itemset{Items: n.items, Count: n.count})
		}
		if record {
			bud.NotePass(k, cand, len(level))
		}
		if !bud.Charge(len(level)) {
			break
		}
		runs := prefixRuns(level, nodeItems)
		cand = pairCandidates(runs)
		level = joinRuns(level, runs, bud, func(run []node) []node {
			var next []node
			dst := make([]uint64, cv.words)
			for i, a := range run {
				if !bud.Charge(0) { // poll cancellation between rows of the run
					return next
				}
				for _, b := range run[i+1:] {
					c := cover(dst, a.bits, b.bits)
					if c < minCount {
						continue
					}
					next = append(next, node{items: extend(a.items, b.items), bits: dst, count: c})
					dst = make([]uint64, cv.words)
				}
			}
			return next
		})
	}
	return out
}

// joinPrune is the candidate-list strategy of [3]: level k+1's
// candidates are the prefix-run joins of level k whose every k-subset is
// large, and one countSets call per level counts them. keep, when
// non-nil, filters the 2-candidates (DHP's pass-1 bucket test [12]).
// Pass 1 charges the budget with the large singletons, every later pass
// with its candidates before counting them. The output is canonically
// sorted by construction.
func joinPrune(cv *covers, minCount int, bud *Budget, keep func(a, b Item) bool) []Itemset {
	level := make([]Itemset, len(cv.items))
	for i, it := range cv.items {
		level[i] = Itemset{Items: []Item{it}, Count: cv.counts[i]}
	}
	bud.NotePass(1, cv.distinct, len(level))
	if !bud.Charge(len(level)) {
		return level
	}
	setItems := func(s Itemset) []Item { return s.Items }
	var out []Itemset
	for k := 2; len(level) > 0; k++ {
		out = append(out, level...)
		prev := level
		cands := joinRuns(prev, prefixRuns(prev, setItems), bud, func(run []Itemset) [][]Item {
			var next [][]Item
			var arena []Item // the run's candidates, carved in order
			sub := make([]Item, 0, k-1)
			for i, a := range run {
				for _, b := range run[i+1:] {
					last := b.Items[len(b.Items)-1]
					if k == 2 && keep != nil && !keep(a.Items[0], last) {
						continue
					}
					start := len(arena)
					arena = append(append(arena, a.Items...), last)
					c := arena[start:len(arena):len(arena)]
					if !allSubsetsLarge(c, prev, sub) {
						arena = arena[:start]
						continue
					}
					next = append(next, c)
				}
			}
			return next
		})
		if len(cands) == 0 || !bud.Charge(len(cands)) {
			break
		}
		counts := cv.countSets(cands, bud)
		level = nil
		for i, c := range cands {
			if counts[i] >= minCount {
				level = append(level, Itemset{Items: c, Count: counts[i]})
			}
		}
		bud.NotePass(k, len(cands), len(level))
	}
	return out
}

// allSubsetsLarge reports whether every k-subset of the (k+1)-candidate
// c is in the canonically sorted level. The two subsets that drop one of
// c's last two items are its join parents and are not looked up; sub is
// scratch space.
func allSubsetsLarge(c []Item, level []Itemset, sub []Item) bool {
	for skip := 0; skip < len(c)-2; skip++ {
		sub = append(append(sub[:0], c[:skip]...), c[skip+1:]...)
		if _, ok := sort.Find(len(level), func(i int) int { return compareItems(sub, level[i].Items) }); !ok {
			return false
		}
	}
	return true
}

// extend returns the join of two prefix-sharing itemsets: a plus b's
// last item, in a fresh slice.
func extend(a, b []Item) []Item {
	c := make([]Item, len(a)+1)
	copy(c, a)
	c[len(a)] = b[len(b)-1]
	return c
}
