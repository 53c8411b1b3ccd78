package mining

// Apriori is the levelwise large-itemset algorithm of the simple core
// processing (§4.3.1) [1,3]: candidates grow by one item per level, and
// a candidate's group count is the popcount of the AND of its two
// generating parents' packed covers. It is the pool's default member.
type Apriori struct{}

// Name implements ItemsetMiner.
func (Apriori) Name() string { return "apriori" }

// LargeItemsets implements ItemsetMiner with the levelwise strategy.
func (Apriori) LargeItemsets(in *SimpleInput, minCount int, bud *Budget) []Itemset {
	return levelwise(newCovers(in, minCount), minCount, bud, true)
}

// Bitmap is the vertical-bitmap member of the pool. Packed covers are
// the whole pool's counting substrate, so it is the levelwise strategy,
// the same as Apriori, under its own name.
type Bitmap struct{}

// Name implements ItemsetMiner.
func (Bitmap) Name() string { return "bitmap" }

// LargeItemsets implements ItemsetMiner with the levelwise strategy.
func (Bitmap) LargeItemsets(in *SimpleInput, minCount int, bud *Budget) []Itemset {
	return Apriori{}.LargeItemsets(in, minCount, bud)
}
