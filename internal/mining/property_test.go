package mining

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// ruleKey identifies a rule by its itemsets.
func ruleKey(r Rule) string { return itemsString(r.Body) + ">" + itemsString(r.Head) }

// TestSupportMonotonicityProperty: raising the support threshold must
// produce a subset of the rules (with identical measures on the
// intersection).
func TestSupportMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		byGroup := make(map[int64][]Item)
		for g := int64(1); g <= 40; g++ {
			n := 1 + rng.Intn(6)
			items := make([]Item, n)
			for i := range items {
				items[i] = Item(rng.Intn(10))
			}
			byGroup[g] = items
		}
		in := NewSimpleInput(byGroup, len(byGroup))
		lo := MineSimple(Apriori{}, in, Options{
			MinSupport: 0.1, MinConfidence: 0.2,
			BodyCard: Card{Min: 1}, HeadCard: Card{Min: 1, Max: 1},
		})
		hi := MineSimple(Apriori{}, in, Options{
			MinSupport: 0.3, MinConfidence: 0.2,
			BodyCard: Card{Min: 1}, HeadCard: Card{Min: 1, Max: 1},
		})
		loSet := make(map[string]Rule, len(lo))
		for _, r := range lo {
			loSet[ruleKey(r)] = r
		}
		for _, r := range hi {
			lr, ok := loSet[ruleKey(r)]
			if !ok {
				return false // a high-threshold rule missing at low threshold
			}
			if lr.Support != r.Support || lr.Confidence != r.Confidence {
				return false // measures must not depend on the threshold
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestConfidenceMonotonicityProperty: raising the confidence threshold
// filters the same rule set.
func TestConfidenceMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		byGroup := make(map[int64][]Item)
		for g := int64(1); g <= 30; g++ {
			n := 1 + rng.Intn(5)
			items := make([]Item, n)
			for i := range items {
				items[i] = Item(rng.Intn(8))
			}
			byGroup[g] = items
		}
		in := NewSimpleInput(byGroup, len(byGroup))
		base := Options{MinSupport: 0.1, BodyCard: Card{Min: 1}, HeadCard: Card{Min: 1, Max: 1}}
		lo, hi := base, base
		lo.MinConfidence, hi.MinConfidence = 0.2, 0.7
		loRules := MineSimple(Apriori{}, in, lo)
		hiRules := MineSimple(Apriori{}, in, hi)
		loSet := make(map[string]bool, len(loRules))
		for _, r := range loRules {
			loSet[ruleKey(r)] = true
		}
		for _, r := range hiRules {
			if r.Confidence < 0.7 {
				return false
			}
			if !loSet[ruleKey(r)] {
				return false
			}
		}
		// Counting check: hi = lo filtered at 0.7.
		kept := 0
		for _, r := range loRules {
			if r.Confidence >= 0.7 {
				kept++
			}
		}
		return kept == len(hiRules)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestRuleMeasuresConsistencyProperty: for every emitted rule,
// support = SupportCount/totg, confidence = SupportCount/BodyCount, and
// confidence ≥ support when the denominator counts are consistent.
func TestRuleMeasuresConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		byGroup := make(map[int64][]Item)
		for g := int64(1); g <= 25; g++ {
			n := 1 + rng.Intn(6)
			items := make([]Item, n)
			for i := range items {
				items[i] = Item(rng.Intn(9))
			}
			byGroup[g] = items
		}
		in := NewSimpleInput(byGroup, len(byGroup))
		rules := MineSimple(Apriori{}, in, Options{
			MinSupport: 0.05, MinConfidence: 0,
			BodyCard: Card{Min: 1}, HeadCard: Card{Min: 1, Max: 2},
		})
		for _, r := range rules {
			if r.Support != float64(r.SupportCount)/float64(in.TotalGroups) {
				return false
			}
			if r.Confidence != float64(r.SupportCount)/float64(r.BodyCount) {
				return false
			}
			if r.SupportCount > r.BodyCount {
				return false // body occurs at least wherever the rule does
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestGeneralLatticeMonotonicityProperty: in the general core, every
// emitted (B,H) rule's sub-rules (prefix subsets along the canonical
// path) would also satisfy the support threshold — checked indirectly:
// mining at a lower threshold yields a superset.
func TestGeneralLatticeMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var groups []GroupData
		for g := int64(1); g <= 20; g++ {
			nclusters := 1 + rng.Intn(3)
			bc := make(map[int64][]Item)
			for c := int64(0); c < int64(nclusters); c++ {
				n := 1 + rng.Intn(4)
				items := make([]Item, n)
				for i := range items {
					items[i] = Item(rng.Intn(7))
				}
				bc[c] = normalizeItems(items)
			}
			groups = append(groups, GroupData{Gid: g, BodyClusters: bc, HeadClusters: bc})
		}
		mk := func(s float64) []Rule {
			return MineGeneral(&GeneralInput{
				TotalGroups: len(groups),
				Groups:      groups,
				PairPolicy:  AllPairs,
				SameAttr:    true,
			}, Options{MinSupport: s, MinConfidence: 0,
				BodyCard: Card{Min: 1, Max: 2}, HeadCard: Card{Min: 1, Max: 1}})
		}
		lo := mk(0.1)
		hi := mk(0.4)
		loSet := make(map[string]bool, len(lo))
		for _, r := range lo {
			loSet[ruleKey(r)] = true
		}
		for _, r := range hi {
			if !loSet[ruleKey(r)] {
				return false
			}
		}
		return len(hi) <= len(lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// latticeShape is one randomly drawn input shape for the general core.
type latticeShape struct {
	policy     PairPolicy
	sameAttr   bool
	elementary bool
	bodyCard   Card
	headCard   Card
}

func (s latticeShape) String() string {
	return fmt.Sprintf("policy=%d sameAttr=%v elementary=%v body=%v head=%v",
		s.policy, s.sameAttr, s.elementary, s.bodyCard, s.headCard)
}

// randomGeneralInput draws an input of the given shape. Without
// SameAttr the head clusters are separate item lists whose encodings
// overlap the body's numerically, so a kernel that wrongly keeps bodies
// and heads disjoint shows. Elementary input mimics the preprocessor's
// InputRules: the cartesian product of each valid cluster pair,
// filtered by a mining condition on body and head items, in arbitrary
// order and with duplicate rows. Under SameAttr a few self pairs b ⇒ b
// are kept: the translator never emits them, and the core must drop
// them.
func randomGeneralInput(rng *rand.Rand, s latticeShape) *GeneralInput {
	const items = 8
	clusterItems := func() []Item {
		out := make([]Item, 1+rng.Intn(5))
		for i := range out {
			out[i] = Item(rng.Intn(items))
		}
		return normalizeItems(out)
	}
	var groups []GroupData
	for g := int64(1); g <= 25; g++ {
		nclusters := 1 + rng.Intn(3)
		if s.policy == SelfPairs {
			nclusters = 1
		}
		bc := make(map[int64][]Item)
		hc := bc
		if !s.sameAttr {
			hc = make(map[int64][]Item)
		}
		for c := int64(0); c < int64(nclusters); c++ {
			bc[c] = clusterItems()
			if !s.sameAttr {
				hc[c] = clusterItems()
			}
		}
		gd := GroupData{Gid: g, BodyClusters: bc, HeadClusters: hc}
		if s.policy == ExplicitPairs {
			for b := int64(0); b < int64(nclusters); b++ {
				for h := int64(0); h < int64(nclusters); h++ {
					if rng.Intn(3) > 0 {
						gd.Couples = append(gd.Couples, [2]int64{b, h})
					}
				}
			}
		}
		groups = append(groups, gd)
	}
	in := &GeneralInput{
		TotalGroups: len(groups),
		Groups:      groups,
		PairPolicy:  s.policy,
		SameAttr:    s.sameAttr,
	}
	if s.elementary {
		bodyOK, headOK := rng.Perm(items), rng.Perm(items)
		in.Elementary = []ElemOcc{}
		for _, g := range groups {
			for _, pair := range validPairs(in, g) {
				for _, b := range g.BodyClusters[pair[0]] {
					for _, h := range g.HeadClusters[pair[1]] {
						if (s.sameAttr && b == h && b%4 != 0) || bodyOK[b] < 2 || headOK[h] < 2 {
							continue
						}
						e := ElemOcc{Body: b, Head: h, Ctx: Ctx{G: g.Gid, BC: pair[0], HC: pair[1]}}
						in.Elementary = append(in.Elementary, e)
						if rng.Intn(8) == 0 {
							in.Elementary = append(in.Elementary, e)
						}
					}
				}
			}
		}
		rng.Shuffle(len(in.Elementary), func(i, j int) {
			in.Elementary[i], in.Elementary[j] = in.Elementary[j], in.Elementary[i]
		})
	}
	return in
}

// TestLatticeStrategiesAgree: the canonical-path kernel and the paper's
// lower-cardinality-parent lattice (the test reference) must produce
// identical rule lists, counts included, on every input shape the
// preprocessor serves: all three pair policies, shared or separate
// body/head encodings, derived or preprocessor-supplied elementary
// rules, bounded or unbounded cardinalities.
func TestLatticeStrategiesAgree(t *testing.T) {
	cards := []Card{{Min: 1, Max: 1}, {Min: 1, Max: 2}, {Min: 1, Max: 3}, {Min: 2, Max: 0}, {Min: 1, Max: 0}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := latticeShape{
			policy:     PairPolicy(rng.Intn(3)),
			sameAttr:   rng.Intn(2) == 0,
			elementary: rng.Intn(2) == 0,
			bodyCard:   cards[rng.Intn(len(cards))],
			headCard:   cards[rng.Intn(len(cards))],
		}
		in := randomGeneralInput(rng, shape)
		opts := Options{MinSupport: 0.08 + 0.08*rng.Float64(), MinConfidence: 0.4 * rng.Float64(),
			BodyCard: shape.bodyCard, HeadCard: shape.headCard}
		got := MineGeneral(in, opts)
		want := referenceMineGeneral(in, opts)
		if len(got) != len(want) {
			t.Logf("seed %d (%v): %d vs %d rules", seed, shape, len(got), len(want))
			return false
		}
		for i := range got {
			g, w := got[i], want[i]
			if compareItems(g.Body, w.Body) != 0 || compareItems(g.Head, w.Head) != 0 ||
				g.SupportCount != w.SupportCount || g.BodyCount != w.BodyCount ||
				g.Support != w.Support || g.Confidence != w.Confidence {
				t.Logf("seed %d (%v): rule %d: %v (%d/%d) vs %v (%d/%d)", seed, shape, i,
					g, g.SupportCount, g.BodyCount, w, w.SupportCount, w.BodyCount)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLatticeStrategiesAgreeOnPaperExample pins the kernel and the
// reference to Figure 2.b.
func TestLatticeStrategiesAgreeOnPaperExample(t *testing.T) {
	for name, mine := range map[string]func(*GeneralInput, Options) []Rule{
		"kernel": MineGeneral, "reference": referenceMineGeneral,
	} {
		rules := mine(paperGeneralInput(), Options{
			MinSupport: 0.2, MinConfidence: 0.3,
			BodyCard: Card{Min: 1}, HeadCard: Card{Min: 1},
		})
		if len(rules) != 3 {
			t.Errorf("%s: %d rules, want 3", name, len(rules))
		}
	}
}
