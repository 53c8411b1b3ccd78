package mining

// Partition implements the two-pass algorithm of Savasere, Omiecinski
// and Navathe [13]: the groups are divided into partitions small enough
// to mine in memory; any globally large itemset must be locally large in
// at least one partition, so the union of the local results is a
// complete candidate set that a single second pass counts exactly.
type Partition struct {
	// Partitions is the number of partitions (default 4; clamped to the
	// number of groups).
	Partitions int
}

// Name implements ItemsetMiner.
func (p Partition) Name() string { return "partition" }

// LargeItemsets implements ItemsetMiner. Phase 1 mines the partitions
// with the levelwise strategy, concurrently on the worker pool, and
// records no passes; phase 2 counts the union once and records it as
// one pass. The budget is shared by the phase-1 workers: once it trips,
// no further partition starts, running ones wind down at their next
// pass boundary, and nil is returned.
func (p Partition) LargeItemsets(in *SimpleInput, minCount int, bud *Budget) []Itemset {
	nparts := p.Partitions
	if nparts <= 0 {
		nparts = 4
	}
	cv := newCovers(in, minCount)
	if nparts > len(in.Groups) {
		nparts = len(in.Groups)
	}
	if nparts <= 1 {
		return levelwise(cv, minCount, bud, true)
	}

	// Phase 1: local large itemsets per partition. The local threshold
	// scales the global one by the partition's share of groups,
	// reproducing the paper's ⌈minsup·|partition|⌉ rule. TotalGroups may
	// exceed len(Groups) (group HAVING); the ratio keeps the local
	// threshold consistent with the global count threshold.
	per := (len(in.Groups) + nparts - 1) / nparts
	nparts = (len(in.Groups) + per - 1) / per
	local := make([][]Itemset, nparts)
	parallelFor(nparts, bud, func(pi int) {
		part := &SimpleInput{Groups: in.Groups[pi*per : min((pi+1)*per, len(in.Groups))]}
		localMin := MinCount(float64(minCount)/float64(len(in.Groups)), len(part.Groups))
		local[pi] = levelwise(newCovers(part, localMin), localMin, bud, false)
	})
	if bud.Stop() {
		return nil // phase 1 incomplete; phase-2 counting would be wrong
	}

	// Phase 2: one global counting pass over the candidate union, taken
	// in partition order.
	seen := make(map[string]bool)
	var cands [][]Item
	for _, sets := range local {
		for _, s := range sets {
			if k := key(s.Items); !seen[k] {
				seen[k] = true
				cands = append(cands, s.Items)
			}
		}
	}
	if !bud.Charge(len(cands)) {
		return nil
	}
	counts := cv.countSets(cands, bud)
	if bud.Stop() {
		return nil
	}
	var out []Itemset
	for i, c := range cands {
		if counts[i] >= minCount {
			out = append(out, Itemset{Items: c, Count: counts[i]})
		}
	}
	bud.NotePass(0, len(cands), len(out))
	sortItemsets(out)
	return out
}
