package mining

import "math/rand"

// Sampling implements Toivonen's sampling algorithm [7]: mine a random
// sample at a lowered threshold, then verify the found sets *and their
// negative border* against the full data in one pass. If some border set
// turns out globally large the sample missed something; the
// implementation then falls back to an exact run, so the result is
// always exact (the sampling only risks wasted work, never wrong
// output) — the "more than one but less than two" passes of the paper's
// introduction.
type Sampling struct {
	// Fraction of groups to sample (default 0.25, clamped to (0,1]).
	Fraction float64
	// LoweredFactor scales the threshold on the sample (default 0.8).
	LoweredFactor float64
	// Seed makes runs reproducible (default 1).
	Seed int64
}

// Name implements ItemsetMiner.
func (s Sampling) Name() string { return "sampling" }

// LargeItemsets implements ItemsetMiner. The sample is mined with the
// levelwise strategy and records no passes; the verification counts the
// sample-large sets and their border in one call and records it as one
// pass. The exact fallback, when it runs, records its levelwise passes
// after that one.
func (s Sampling) LargeItemsets(in *SimpleInput, minCount int, bud *Budget) []Itemset {
	frac := s.Fraction
	if frac <= 0 || frac > 1 {
		frac = 0.25
	}
	lowered := s.LoweredFactor
	if lowered <= 0 || lowered > 1 {
		lowered = 0.8
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	cv := newCovers(in, minCount)
	sampleSize := int(frac * float64(len(in.Groups)))
	if sampleSize < 1 {
		return levelwise(cv, minCount, bud, true)
	}

	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(in.Groups))[:sampleSize]
	sample := &SimpleInput{Groups: make([][]Item, sampleSize)}
	for i, j := range idx {
		sample.Groups[i] = in.Groups[j]
	}

	// Mine the sample at the lowered threshold.
	globalSupp := float64(minCount) / float64(len(in.Groups))
	localMin := MinCount(lowered*globalSupp, sampleSize)
	sampleLarge := levelwise(newCovers(sample, localMin), localMin, bud, false)

	// Full-data verification of the sample-large sets and their border.
	cands := make([][]Item, len(sampleLarge))
	for i, st := range sampleLarge {
		cands[i] = st.Items
	}
	cands = append(cands, negativeBorder(cv.items, sampleLarge)...)
	if !bud.Charge(len(cands)) {
		return nil
	}
	counts := cv.countSets(cands, bud)
	if bud.Stop() {
		return nil
	}
	var out []Itemset
	missed := false
	for i, c := range cands {
		switch {
		case counts[i] < minCount:
		case i < len(sampleLarge):
			out = append(out, Itemset{Items: c, Count: counts[i]})
		default:
			missed = true
		}
	}
	bud.NotePass(0, len(cands), len(out))
	if missed {
		// A border set is globally large: the sample was unlucky. Fall
		// back to the exact strategy for a guaranteed-complete answer.
		return levelwise(cv, minCount, bud, true)
	}
	return out
}

// negativeBorder returns the minimal itemsets just outside the
// canonically sorted sample-large collection that could be globally
// large: every frequent singleton not in it, and every Apriori join of
// same-level members whose result is absent. Singletons below the
// global threshold are left out; they cannot be large.
func negativeBorder(frequent []Item, large []Itemset) [][]Item {
	have := make(map[string]bool, len(large))
	for _, s := range large {
		have[key(s.Items)] = true
	}
	var border [][]Item
	for _, it := range frequent {
		if items := []Item{it}; !have[key(items)] {
			border = append(border, items)
		}
	}
	for i, a := range large {
		for _, b := range large[i+1:] {
			if len(b.Items) != len(a.Items) || !samePrefix(a.Items, b.Items) {
				break
			}
			if c := extend(a.Items, b.Items); !have[key(c)] {
				border = append(border, c)
			}
		}
	}
	return border
}
