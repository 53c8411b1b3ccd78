package mining

import (
	"slices"
	"sort"
)

// This file keeps the paper's own description of the general-rule
// search (§4.3.2) as the test reference for the canonical-path kernel
// in general.go: rule sets RS(m,n) form a lattice; RS(m+1,n) and
// RS(m,n+1) derive from RS(m,n); a set reachable from two parents is
// computed "starting from the set with lower cardinality" (the smaller
// parent), and duplicates are merged. TestLatticeStrategiesAgree holds
// the kernel to it, and BenchmarkLatticeStrategy measures the
// difference.

// referenceMineGeneral mines in with the paper's lower-cardinality-parent
// scheme over plain context triples.
func referenceMineGeneral(in *GeneralInput, opts Options) []Rule {
	minCount := MinCount(opts.MinSupport, in.TotalGroups)
	return mineBidirectional(in, opts, elementaryContexts(in, minCount), bodyOccurrences(in), minCount)
}

// latticeRule is a rule under construction with its context list.
type latticeRule struct {
	body, head []Item
	ctxs       []Ctx
	gcount     int
}

// ruleSetKey identifies one lattice node.
type ruleSetKey struct{ m, n int }

// mineBidirectional implements the lower-cardinality-parent scheme.
func mineBidirectional(in *GeneralInput, opts Options, elem map[pairKey][]Ctx, bodyOcc map[Item][]GC, minCount int) []Rule {
	if len(elem) == 0 {
		return nil
	}
	// RS(1,1).
	var top []latticeRule
	for pk, ctxs := range elem {
		top = append(top, latticeRule{
			body:   []Item{pk.b},
			head:   []Item{pk.h},
			ctxs:   ctxs,
			gcount: distinctGroups(ctxs),
		})
	}
	sortLatticeRules(top)

	sets := map[ruleSetKey][]latticeRule{{1, 1}: top}

	// extendBody derives RS(m+1,n) from RS(m,n); every extension is
	// tried and duplicates merge through the key map (each rule has m+1
	// generating parents in the full lattice, but from a single parent
	// set each rule still arises once per removable-vs-added item pair).
	extendBody := func(parent []latticeRule) []latticeRule {
		seen := make(map[string]bool)
		var out []latticeRule
		for _, r := range parent {
			for _, b := range allBodyItems(elem) {
				if itemIn(r.body, b) {
					continue
				}
				if in.SameAttr && itemIn(r.head, b) {
					continue
				}
				nb := insertSorted(r.body, b)
				k := key(nb) + "=>" + key(r.head)
				if seen[k] {
					continue
				}
				seen[k] = true
				ctxs := r.ctxs
				ok := true
				for _, h := range r.head {
					pc, exists := elem[pairKey{b, h}]
					if !exists {
						ok = false
						break
					}
					ctxs = intersectCtx(ctxs, pc)
					if len(ctxs) == 0 {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				if g := distinctGroups(ctxs); g >= minCount {
					out = append(out, latticeRule{body: nb, head: r.head, ctxs: ctxs, gcount: g})
				}
			}
		}
		sortLatticeRules(out)
		return out
	}
	extendHead := func(parent []latticeRule) []latticeRule {
		seen := make(map[string]bool)
		var out []latticeRule
		for _, r := range parent {
			for _, h := range allHeadItems(elem) {
				if itemIn(r.head, h) {
					continue
				}
				if in.SameAttr && itemIn(r.body, h) {
					continue
				}
				nh := insertSorted(r.head, h)
				k := key(r.body) + "=>" + key(nh)
				if seen[k] {
					continue
				}
				seen[k] = true
				ctxs := r.ctxs
				ok := true
				for _, b := range r.body {
					pc, exists := elem[pairKey{b, h}]
					if !exists {
						ok = false
						break
					}
					ctxs = intersectCtx(ctxs, pc)
					if len(ctxs) == 0 {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				if g := distinctGroups(ctxs); g >= minCount {
					out = append(out, latticeRule{body: r.body, head: nh, ctxs: ctxs, gcount: g})
				}
			}
		}
		sortLatticeRules(out)
		return out
	}

	// Layer-wise descent: layer d holds the sets with m+n = d.
	var rules []Rule
	emitSet := func(set []latticeRule) {
		for _, r := range set {
			if !opts.BodyCard.contains(len(r.body)) || !opts.HeadCard.contains(len(r.head)) {
				continue
			}
			bc := bodyCount(bodyOcc, r.body)
			if bc == 0 {
				continue
			}
			conf := float64(r.gcount) / float64(bc)
			if conf < opts.MinConfidence {
				continue
			}
			rules = append(rules, Rule{
				Body:         append([]Item(nil), r.body...),
				Head:         append([]Item(nil), r.head...),
				SupportCount: r.gcount,
				BodyCount:    bc,
				Support:      float64(r.gcount) / float64(in.TotalGroups),
				Confidence:   conf,
			})
		}
	}
	emitSet(top)

	bud := opts.Budget
	for d := 3; ; d++ {
		any := false
		for m := 1; m < d; m++ {
			n := d - m
			if m < 1 || n < 1 {
				continue
			}
			if bud.Stop() {
				SortRules(rules)
				return rules
			}
			if !opts.BodyCard.allows(m) || !opts.HeadCard.allows(n) {
				continue
			}
			// Pick the smaller existing parent (the paper's rule); a set
			// on the lattice border has only one.
			left, hasLeft := sets[ruleSetKey{m - 1, n}]    // grow body
			rightP, hasRight := sets[ruleSetKey{m, n - 1}] // grow head
			var set []latticeRule
			switch {
			case hasLeft && hasRight:
				if len(left) <= len(rightP) {
					set = extendBody(left)
				} else {
					set = extendHead(rightP)
				}
			case hasLeft:
				set = extendBody(left)
			case hasRight:
				set = extendHead(rightP)
			default:
				continue
			}
			if len(set) == 0 {
				continue
			}
			if !bud.Charge(len(set)) {
				SortRules(rules)
				return rules
			}
			sets[ruleSetKey{m, n}] = set
			emitSet(set)
			any = true
		}
		if !any {
			break
		}
	}
	SortRules(rules)
	return rules
}

func sortLatticeRules(rs []latticeRule) {
	sort.Slice(rs, func(i, j int) bool {
		if c := compareItems(rs[i].body, rs[j].body); c != 0 {
			return c < 0
		}
		return compareItems(rs[i].head, rs[j].head) < 0
	})
}

func insertSorted(items []Item, it Item) []Item {
	out := make([]Item, 0, len(items)+1)
	placed := false
	for _, x := range items {
		if !placed && it < x {
			out = append(out, it)
			placed = true
		}
		out = append(out, x)
	}
	if !placed {
		out = append(out, it)
	}
	return out
}

func allBodyItems(elem map[pairKey][]Ctx) []Item {
	seen := make(map[Item]bool)
	var out []Item
	for pk := range elem {
		if !seen[pk.b] {
			seen[pk.b] = true
			out = append(out, pk.b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func allHeadItems(elem map[pairKey][]Ctx) []Item {
	seen := make(map[Item]bool)
	var out []Item
	for pk := range elem {
		if !seen[pk.h] {
			seen[pk.h] = true
			out = append(out, pk.h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func intersectCtx(a, b []Ctx) []Ctx {
	out := make([]Ctx, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := cmpCtx(a[i], b[j]); {
		case c == 0:
			out = append(out, a[i])
			i++
			j++
		case c < 0:
			i++
		default:
			j++
		}
	}
	return out
}

func itemIn(items []Item, it Item) bool {
	for _, x := range items {
		if x == it {
			return true
		}
	}
	return false
}

// elementaryContexts produces the pruned map pair → sorted context list.
func elementaryContexts(in *GeneralInput, minCount int) map[pairKey][]Ctx {
	elem := make(map[pairKey][]Ctx)
	elementaryOccurrences(in, func(pk pairKey, c Ctx) {
		elem[pk] = append(elem[pk], c)
	})
	for pk, ctxs := range elem {
		ctxs = normalizeCtxs(ctxs)
		if distinctGroups(ctxs) < minCount {
			delete(elem, pk)
			continue
		}
		elem[pk] = ctxs
	}
	return elem
}

func normalizeCtxs(ctxs []Ctx) []Ctx {
	slices.SortFunc(ctxs, cmpCtx)
	return slices.Compact(ctxs)
}

func distinctGroups(ctxs []Ctx) int {
	count := 0
	var prev int64 = -1 << 62
	for _, c := range ctxs {
		if c.G != prev {
			count++
			prev = c.G
		}
	}
	return count
}
