package mining

import (
	"cmp"
	"slices"
	"sort"
)

// This file implements the general core processing of §4.3.2: rule
// discovery over the m×n rule lattice, starting from elementary (1×1)
// rules and growing bodies and heads by one item at a time.
//
// An elementary rule occurrence is a *context* (group, body cluster,
// head cluster). A composed rule B ⇒ H holds in a context exactly when
// every pair (b, h) ∈ B×H is an elementary rule there, so the context
// list of a grown rule is the intersection of its parent's list with the
// added pairs' lists. Support counts distinct groups among a rule's
// contexts; confidence divides by the number of groups where the whole
// body co-occurs inside one cluster (§2 step 5: "all body clusters are
// used for computing confidence").

// Ctx is one rule occurrence context.
type Ctx struct {
	G  int64 // group
	BC int64 // body cluster
	HC int64 // head cluster
}

func cmpCtx(a, b Ctx) int {
	if c := cmp.Compare(a.G, b.G); c != 0 {
		return c
	}
	if c := cmp.Compare(a.BC, b.BC); c != 0 {
		return c
	}
	return cmp.Compare(a.HC, b.HC)
}

// GC is a (group, cluster) occurrence of an item in a role.
type GC struct {
	G int64
	C int64
}

func gcLess(a, b GC) bool {
	if a.G != b.G {
		return a.G < b.G
	}
	return a.C < b.C
}

// PairPolicy selects which (body cluster, head cluster) pairs are valid
// inside a group when the preprocessor did not materialize
// ClusterCouples.
type PairPolicy int

const (
	// SelfPairs: no CLUSTER BY — each group is a single cluster paired
	// with itself.
	SelfPairs PairPolicy = iota
	// AllPairs: CLUSTER BY without HAVING — every ordered pair of
	// clusters in the group, including a cluster with itself.
	AllPairs
	// ExplicitPairs: the cluster HAVING selected pairs (ClusterCouples).
	ExplicitPairs
)

// GroupData is the per-group slice of the encoded source: which items
// appear in which cluster, for each role. When the statement has a
// single item schema (¬H), HeadClusters aliases BodyClusters.
type GroupData struct {
	Gid          int64
	BodyClusters map[int64][]Item
	HeadClusters map[int64][]Item
	// Couples lists the valid (body cid, head cid) pairs; used only
	// under ExplicitPairs.
	Couples [][2]int64
}

// ElemOcc is one elementary rule occurrence row (from InputRules).
type ElemOcc struct {
	Body, Head Item
	Ctx        Ctx
}

// GeneralInput is the encoded input of the general core processing.
type GeneralInput struct {
	TotalGroups int
	Groups      []GroupData
	PairPolicy  PairPolicy
	// SameAttr is true when body and head share one item encoding (¬H);
	// rule bodies and heads are then kept disjoint.
	SameAttr bool
	// Elementary, when non-nil, is the preprocessor-computed InputRules
	// (M true): the elementary rules with their contexts. When nil the
	// core derives elementary rules from Groups (the non-materialized
	// cartesian product of §4.3.2).
	Elementary []ElemOcc
}

type pairKey struct{ b, h Item }

// MineGeneral runs the rule-lattice algorithm: a canonical unique-path
// descent of the paper's m×n lattice. Bodies grow (in increasing item
// order) while the head is a singleton; heads grow (in increasing item
// order) at any body. Every m×n rule set is reached exactly once, and
// since rule contexts shrink monotonically along any path, support
// pruning is safe on this path too.
//
// The descent works on dense context ids: every distinct elementary
// context is numbered in sorted order, so a rule's context list is a
// sorted []int32 and its distinct-group count an array lookup per id.
// A node grows only by joining with its frequent later siblings (Zaki's
// Eclat classes): with H = P∪{x}, the rule (B, H∪{h}) can be frequent
// only if its sibling (B, P∪{h}) is, and its contexts are then
// ids(B,H) ∩ ids(B,P∪{h}) — one intersection per frequent sibling.
// Bodies grow the same way under a singleton head. For a singleton head
// the siblings are the frequent (B, {h'}), which the breadth-first
// order has all enqueued before any node with body B is expanded. Only
// lists that reach the support threshold are allocated.
func MineGeneral(in *GeneralInput, opts Options) []Rule {
	d := &descent{
		in:       in,
		opts:     opts,
		minCount: MinCount(opts.MinSupport, in.TotalGroups),
		bodyIdx:  make(map[bodyExt]int32),
	}
	elem := d.elementary()
	if len(elem) == 0 {
		return nil
	}
	d.bodyOcc = bodyOccurrences(in)
	d.run(elem)
	SortRules(d.rules)
	return d.rules
}

// descent is the state of one canonical-path walk over the lattice.
type descent struct {
	in       *GeneralInput
	opts     Options
	minCount int
	groupOf  []int32 // context id → dense group number
	bodyOcc  map[Item][]GC
	bodies   []latticeBody
	bodyIdx  map[bodyExt]int32
	mark     []uint32 // context id → stamp of the last list joined
	stamp    uint32   // one per join, at most two per queued node
	scratch  []int32  // join target, reused across intersections
	rules    []Rule
}

// latticeBody is one rule body reached by the descent.
type latticeBody struct {
	items []Item
	// singles are the frequent (B, {h}) nodes in increasing h: the
	// parents of each body's singles are expanded in increasing h.
	singles []sibling
	count   int // memoised confidence denominator; -1 until computed
}

// sibling is a frequent rule that differs from its siblings in one
// item: the last body item in a body class, the last head item in a
// head class.
type sibling struct {
	item   Item
	ids    []int32
	groups int
}

// bodyExt names the body grown from body parent (-1: none) by item b.
type bodyExt struct {
	parent int32
	b      Item
}

// ruleNode is a frequent lattice node awaiting expansion.
type ruleNode struct {
	body   int32
	head   []Item
	ids    []int32
	groups int
	// bodySibs (singleton heads only) and headSibs (heads of two or
	// more items) are the node's later siblings.
	bodySibs, headSibs []sibling
}

func (d *descent) run(elem map[pairKey][]int32) {
	longest := 0
	pairs := make([]pairKey, 0, len(elem))
	for pk, ids := range elem {
		pairs = append(pairs, pk)
		longest = max(longest, len(ids))
	}
	d.scratch = make([]int32, 0, longest)

	// Level 1×1. In (h, b) order, the body class of (b, h) — every
	// frequent (b', h) with b' > b — is the run that follows it.
	slices.SortFunc(pairs, func(a, b pairKey) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		return cmp.Compare(a.b, b.b)
	})
	level := make([]sibling, len(pairs))
	for k, pk := range pairs {
		level[k] = sibling{item: pk.b, ids: elem[pk], groups: d.groups(elem[pk])}
	}
	queue := make([]ruleNode, 0, len(pairs))
	for k, pk := range pairs {
		end := k + 1
		for end < len(pairs) && pairs[end].h == pk.h {
			end++
		}
		bi := d.bodyOf(-1, pk.b)
		d.bodies[bi].singles = append(d.bodies[bi].singles, sibling{item: pk.h, ids: level[k].ids, groups: level[k].groups})
		queue = append(queue, ruleNode{body: bi, head: []Item{pk.h}, ids: level[k].ids, groups: level[k].groups,
			bodySibs: level[k+1 : end]})
	}
	slices.SortFunc(queue, func(x, y ruleNode) int {
		if c := cmp.Compare(d.bodies[x.body].items[0], d.bodies[y.body].items[0]); c != 0 {
			return c
		}
		return cmp.Compare(x.head[0], y.head[0])
	})

	bud := d.opts.Budget
	for i := 0; i < len(queue); i++ {
		if !bud.Charge(1) {
			break // budget tripped: stop the descent, keep rules so far
		}
		r := queue[i]
		queue[i] = ruleNode{} // siblings still hold what later joins need
		d.emit(r)

		// Body growth, only while the head is still a singleton.
		if len(r.head) == 1 && d.opts.BodyCard.allows(len(d.bodies[r.body].items)+1) {
			kids := d.join(r.ids, r.bodySibs)
			for k, c := range kids {
				bi := d.bodyOf(r.body, c.item)
				d.bodies[bi].singles = append(d.bodies[bi].singles, sibling{item: r.head[0], ids: c.ids, groups: c.groups})
				queue = append(queue, ruleNode{body: bi, head: r.head, ids: c.ids, groups: c.groups, bodySibs: kids[k+1:]})
			}
		}

		// Head growth.
		if d.opts.HeadCard.allows(len(r.head) + 1) {
			sibs := r.headSibs
			if len(r.head) == 1 {
				singles := d.bodies[r.body].singles
				k, _ := slices.BinarySearchFunc(singles, r.head[0], func(s sibling, h Item) int { return cmp.Compare(s.item, h) })
				sibs = singles[k+1:]
			}
			kids := d.join(r.ids, sibs)
			for k, c := range kids {
				queue = append(queue, ruleNode{body: r.body, head: appendItem(r.head, c.item), ids: c.ids, groups: c.groups, headSibs: kids[k+1:]})
			}
		}
	}
}

// join intersects ids with each sibling's list and returns the frequent
// results, in sibling order. ids is stamped into d.mark once, so each
// intersection costs one probe per sibling context; it is built in the
// reused scratch buffer and copied out only when it reaches minCount
// groups.
func (d *descent) join(ids []int32, sibs []sibling) []sibling {
	if len(sibs) == 0 {
		return nil
	}
	d.stamp++
	for _, x := range ids {
		d.mark[x] = d.stamp
	}
	var out []sibling
	for _, s := range sibs {
		c := d.scratch[:0]
		groups, last := 0, int32(-1)
		for _, x := range s.ids {
			if d.mark[x] != d.stamp {
				continue
			}
			c = append(c, x)
			if g := d.groupOf[x]; g != last {
				groups++
				last = g
			}
		}
		d.scratch = c
		if groups >= d.minCount {
			out = append(out, sibling{item: s.item, ids: slices.Clone(c), groups: groups})
		}
	}
	return out
}

// elementary interns the contexts of the elementary rule occurrences,
// numbers the distinct ones in sorted order (so id order is context
// order and d.groupOf maps an id to its dense group number), and
// returns each elementary rule's sorted id list. Rules reaching fewer
// than minCount groups are dropped.
func (d *descent) elementary() map[pairKey][]int32 {
	intern := make(map[Ctx]int32)
	var ctxs []Ctx
	elem := make(map[pairKey][]int32)
	elementaryOccurrences(d.in, func(pk pairKey, c Ctx) {
		id, ok := intern[c]
		if !ok {
			id = int32(len(ctxs))
			intern[c] = id
			ctxs = append(ctxs, c)
		}
		elem[pk] = append(elem[pk], id)
	})
	order := make([]int32, len(ctxs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmpCtx(ctxs[a], ctxs[b]) })
	rank := make([]int32, len(ctxs))
	d.groupOf = make([]int32, len(ctxs))
	d.mark = make([]uint32, len(ctxs))
	g := int32(-1)
	for k, p := range order {
		rank[p] = int32(k)
		if k == 0 || ctxs[p].G != ctxs[order[k-1]].G {
			g++
		}
		d.groupOf[k] = g
	}
	for pk, ids := range elem {
		for i, p := range ids {
			ids[i] = rank[p]
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
		if d.groups(ids) < d.minCount {
			delete(elem, pk)
			continue
		}
		elem[pk] = ids
	}
	return elem
}

// bodyOf returns the id of the body grown from parent by b, creating
// it on first use.
func (d *descent) bodyOf(parent int32, b Item) int32 {
	k := bodyExt{parent: parent, b: b}
	if i, ok := d.bodyIdx[k]; ok {
		return i
	}
	items := []Item{b}
	if parent >= 0 {
		items = appendItem(d.bodies[parent].items, b)
	}
	i := int32(len(d.bodies))
	d.bodies = append(d.bodies, latticeBody{items: items, count: -1})
	d.bodyIdx[k] = i
	return i
}

// groups counts the distinct groups of a sorted id list.
func (d *descent) groups(ids []int32) int {
	n, last := 0, int32(-1)
	for _, x := range ids {
		if g := d.groupOf[x]; g != last {
			n++
			last = g
		}
	}
	return n
}

func (d *descent) emit(r ruleNode) {
	b := &d.bodies[r.body]
	if !d.opts.BodyCard.contains(len(b.items)) || !d.opts.HeadCard.contains(len(r.head)) {
		return
	}
	if b.count < 0 {
		b.count = bodyCount(d.bodyOcc, b.items)
	}
	if b.count == 0 {
		return
	}
	conf := float64(r.groups) / float64(b.count)
	if conf < d.opts.MinConfidence {
		return
	}
	d.rules = append(d.rules, Rule{
		Body:         append([]Item(nil), b.items...),
		Head:         append([]Item(nil), r.head...),
		SupportCount: r.groups,
		BodyCount:    b.count,
		Support:      float64(r.groups) / float64(d.in.TotalGroups),
		Confidence:   conf,
	})
}

// elementaryOccurrences calls fn for every elementary rule occurrence,
// either from the preprocessor's InputRules or by streaming the
// per-group cluster-pair cartesian product. Under SameAttr a body item
// never pairs with itself.
func elementaryOccurrences(in *GeneralInput, fn func(pairKey, Ctx)) {
	if in.Elementary != nil {
		for _, e := range in.Elementary {
			if !in.SameAttr || e.Body != e.Head {
				fn(pairKey{e.Body, e.Head}, e.Ctx)
			}
		}
		return
	}
	for _, g := range in.Groups {
		for _, pair := range validPairs(in, g) {
			c := Ctx{G: g.Gid, BC: pair[0], HC: pair[1]}
			for _, b := range g.BodyClusters[pair[0]] {
				for _, h := range g.HeadClusters[pair[1]] {
					if !in.SameAttr || b != h {
						fn(pairKey{b, h}, c)
					}
				}
			}
		}
	}
}

// validPairs expands the pair policy for one group.
func validPairs(in *GeneralInput, g GroupData) [][2]int64 {
	switch in.PairPolicy {
	case ExplicitPairs:
		return g.Couples
	case AllPairs:
		bcids := make([]int64, 0, len(g.BodyClusters))
		for c := range g.BodyClusters {
			bcids = append(bcids, c)
		}
		sort.Slice(bcids, func(i, j int) bool { return bcids[i] < bcids[j] })
		hcids := make([]int64, 0, len(g.HeadClusters))
		for c := range g.HeadClusters {
			hcids = append(hcids, c)
		}
		sort.Slice(hcids, func(i, j int) bool { return hcids[i] < hcids[j] })
		out := make([][2]int64, 0, len(bcids)*len(hcids))
		for _, b := range bcids {
			for _, h := range hcids {
				out = append(out, [2]int64{b, h})
			}
		}
		return out
	default: // SelfPairs: the single implicit cluster is cid 0.
		return [][2]int64{{0, 0}}
	}
}

// bodyOccurrences collects, per body item, the sorted (group, cluster)
// list used for confidence denominators.
func bodyOccurrences(in *GeneralInput) map[Item][]GC {
	occ := make(map[Item][]GC)
	for _, g := range in.Groups {
		for cid, items := range g.BodyClusters {
			for _, it := range items {
				occ[it] = append(occ[it], GC{G: g.Gid, C: cid})
			}
		}
	}
	for it, l := range occ {
		sort.Slice(l, func(i, j int) bool { return gcLess(l[i], l[j]) })
		occ[it] = dedupGC(l)
	}
	return occ
}

// bodyCount counts the groups containing every body item inside a single
// cluster.
func bodyCount(occ map[Item][]GC, body []Item) int {
	cur, ok := occ[body[0]]
	if !ok {
		return 0
	}
	for _, b := range body[1:] {
		next, ok := occ[b]
		if !ok {
			return 0
		}
		cur = intersectGC(cur, next)
		if len(cur) == 0 {
			return 0
		}
	}
	count := 0
	var prev int64 = -1 << 62
	for _, gc := range cur {
		if gc.G != prev {
			count++
			prev = gc.G
		}
	}
	return count
}

func appendItem(items []Item, it Item) []Item {
	out := make([]Item, len(items)+1)
	copy(out, items)
	out[len(items)] = it
	return out
}

func intersectGC(a, b []GC) []GC {
	out := make([]GC, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case gcLess(a[i], b[j]):
			i++
		default:
			j++
		}
	}
	return out
}

func dedupGC(l []GC) []GC {
	out := l[:0]
	for i, gc := range l {
		if i == 0 || gc != l[i-1] {
			out = append(out, gc)
		}
	}
	return out
}
