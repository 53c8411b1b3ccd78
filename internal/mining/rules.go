package mining

// GenerateRules builds association rules from large itemsets (§4.3.1):
// for every large itemset L and subset H ⊂ L, the rule (L−H) ⇒ H is
// emitted when it satisfies the confidence threshold and the cardinality
// specifications. Support of a rule is the support of L; confidence
// divides by the support of the body, which is available because every
// subset of a large itemset is large. Heads are enumerated by size, and
// only sizes the cardinalities allow are enumerated at all.
func GenerateRules(itemsets []Itemset, opts Options, totalGroups int) []Rule {
	supp := make(map[string]int, len(itemsets))
	for _, s := range itemsets {
		supp[key(s.Items)] = s.Count
	}
	minCount := MinCount(opts.MinSupport, totalGroups)

	var rules []Rule
	body := make([]Item, 0, 16)
	head := make([]Item, 0, 16)
	for _, s := range itemsets {
		if opts.Budget.Stop() {
			break
		}
		l := s.Items
		n := len(l)
		if n < 2 || s.Count < minCount {
			continue
		}
		for h := 1; h < n; h++ {
			if !opts.HeadCard.contains(h) || !opts.BodyCard.contains(n-h) {
				continue
			}
			combinations(n, h, func(pick []int) {
				body, head = body[:0], head[:0]
				p := 0
				for i, it := range l {
					if p < len(pick) && pick[p] == i {
						head = append(head, it)
						p++
					} else {
						body = append(body, it)
					}
				}
				bs, ok := supp[key(body)]
				if !ok || bs == 0 {
					return
				}
				conf := float64(s.Count) / float64(bs)
				if conf < opts.MinConfidence {
					return
				}
				rules = append(rules, Rule{
					Body:         append([]Item(nil), body...),
					Head:         append([]Item(nil), head...),
					SupportCount: s.Count,
					BodyCount:    bs,
					Support:      float64(s.Count) / float64(totalGroups),
					Confidence:   conf,
				})
			})
		}
	}
	SortRules(rules)
	return rules
}

// combinations calls fn with every k-subset of [0, n) as ascending
// indexes, in lexicographic order; fn must not keep the slice.
func combinations(n, k int, fn func(pick []int)) {
	pick := make([]int, k)
	for i := range pick {
		pick[i] = i
	}
	for {
		fn(pick)
		i := k - 1
		for i >= 0 && pick[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		pick[i]++
		for j := i + 1; j < k; j++ {
			pick[j] = pick[j-1] + 1
		}
	}
}

// MineSimple runs one pool algorithm end to end: large itemsets, then
// rule generation. When opts.Budget trips mid-run the partial rules are
// returned; the caller must consult opts.Budget.Err.
func MineSimple(m ItemsetMiner, in *SimpleInput, opts Options) []Rule {
	minCount := MinCount(opts.MinSupport, in.TotalGroups)
	sets := m.LargeItemsets(in, minCount, opts.Budget)
	return GenerateRules(sets, opts, in.TotalGroups)
}
