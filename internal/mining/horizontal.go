package mining

// Horizontal is the classical Apriori of [3] in its candidate-list form:
// each pass joins the previous level, prunes every candidate with a
// small subset, and counts the survivors in one counting call. With
// Hashing enabled it adds the DHP refinement [12]: during the first
// pass, item pairs are hashed into a bucket table, and a 2-candidate is
// generated only when its bucket reached the threshold — typically
// cutting the dominant C2 candidate set sharply.
type Horizontal struct {
	// Hashing enables the DHP bucket filter for the second pass.
	Hashing bool
	// HashBuckets sizes the DHP table (default 1<<16).
	HashBuckets int
}

// Name implements ItemsetMiner.
func (h Horizontal) Name() string {
	if h.Hashing {
		return "apriori-dhp"
	}
	return "apriori-horizontal"
}

// LargeItemsets implements ItemsetMiner with the join-and-prune
// strategy.
func (h Horizontal) LargeItemsets(in *SimpleInput, minCount int, bud *Budget) []Itemset {
	cv := newCovers(in, minCount)
	if !h.Hashing {
		return joinPrune(cv, minCount, bud, nil)
	}
	buckets := h.HashBuckets
	if buckets <= 0 {
		buckets = 1 << 16
	}
	table := make([]int32, buckets)
	for _, tx := range in.Groups {
		for i, a := range tx {
			for _, b := range tx[i+1:] {
				table[pairBucket(a, b, buckets)]++
			}
		}
	}
	return joinPrune(cv, minCount, bud, func(a, b Item) bool {
		return table[pairBucket(a, b, buckets)] >= int32(minCount)
	})
}

// pairBucket is the DHP hash: a simple multiplicative mix of both items.
func pairBucket(a, b Item, buckets int) int {
	h := uint64(a)*2654435761 ^ uint64(b)*40503
	return int(h % uint64(buckets))
}

// AprioriTid is the second algorithm of [3], which after pass 1 counts
// through a transformed set C̄k of per-group candidate lists instead of
// the data. C̄k was only a way of counting; over the shared covers the
// algorithm is the join-and-prune strategy, run under its own name.
type AprioriTid struct{}

// Name implements ItemsetMiner.
func (AprioriTid) Name() string { return "apriori-tid" }

// LargeItemsets implements ItemsetMiner with the join-and-prune
// strategy.
func (AprioriTid) LargeItemsets(in *SimpleInput, minCount int, bud *Budget) []Itemset {
	return Horizontal{}.LargeItemsets(in, minCount, bud)
}

// AprioriHybrid is [3]'s switch between Apriori's and AprioriTid's
// counting per pass. Both count through the shared covers, so there is
// nothing to switch: it is the join-and-prune strategy under its own
// name.
type AprioriHybrid struct{}

// Name implements ItemsetMiner.
func (AprioriHybrid) Name() string { return "apriori-hybrid" }

// LargeItemsets implements ItemsetMiner with the join-and-prune
// strategy.
func (AprioriHybrid) LargeItemsets(in *SimpleInput, minCount int, bud *Budget) []Itemset {
	return Horizontal{}.LargeItemsets(in, minCount, bud)
}
