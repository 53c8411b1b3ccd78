package mining

import (
	"reflect"
	"sort"
	"testing"
)

// referenceApriori is the gid-list Apriori in the form the paper
// describes for the simple core processing (§4.3.1): candidate itemsets
// grow by one item per level, and "support of an itemset is evaluated by
// counting elements in an associated list that contains identifiers of
// groups in which the itemset is present". The gid list of a new
// candidate is the intersection of its two generating parents' lists.
// It shares no code with the pool's counting kernel and runs
// sequentially, ignoring the budget, so every pool member is checked
// against an independent answer.
type referenceApriori struct{}

func (referenceApriori) Name() string { return "gidlist-reference" }

// gidNode is a large itemset with its group-id list (sorted group
// indexes).
type gidNode struct {
	items []Item
	gids  []int32
}

func (referenceApriori) LargeItemsets(in *SimpleInput, minCount int, _ *Budget) []Itemset {
	lists := make(map[Item][]int32)
	for g, tx := range in.Groups {
		for _, it := range tx {
			lists[it] = append(lists[it], int32(g))
		}
	}
	var level []gidNode
	for it, l := range lists {
		if len(l) >= minCount {
			level = append(level, gidNode{items: []Item{it}, gids: l})
		}
	}
	sort.Slice(level, func(i, j int) bool { return level[i].items[0] < level[j].items[0] })
	var out []Itemset
	for len(level) > 0 {
		var next []gidNode
		for i, a := range level {
			out = append(out, Itemset{Items: a.items, Count: len(a.gids)})
			for _, b := range level[i+1:] {
				if !samePrefix(a.items, b.items) {
					break
				}
				g := intersect32(a.gids, b.gids)
				if len(g) < minCount {
					continue
				}
				items := append(append([]Item(nil), a.items...), b.items[len(b.items)-1])
				next = append(next, gidNode{items: items, gids: g})
			}
		}
		level = next
	}
	sortItemsets(out)
	return out
}

// intersect32 merges two sorted int32 lists.
func intersect32(a, b []int32) []int32 {
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// containsAll reports whether the sorted transaction tx contains every
// element of the sorted candidate items.
func containsAll(tx, items []Item) bool {
	i := 0
	for _, t := range tx {
		if i == len(items) {
			return true
		}
		switch {
		case t == items[i]:
			i++
		case t > items[i]:
			return false
		}
	}
	return i == len(items)
}

// scanCount counts the groups of in holding every item of items by a
// plain scan — the brute-force check of the reference itself.
func scanCount(in *SimpleInput, items []Item) int {
	n := 0
	for _, tx := range in.Groups {
		if containsAll(tx, items) {
			n++
		}
	}
	return n
}

func TestContainsAll(t *testing.T) {
	tx := []Item{1, 3, 5, 9}
	cases := []struct {
		items []Item
		want  bool
	}{
		{[]Item{1}, true},
		{[]Item{1, 9}, true},
		{[]Item{3, 5, 9}, true},
		{[]Item{2}, false},
		{[]Item{1, 4}, false},
		{nil, true},
	}
	for _, c := range cases {
		if got := containsAll(tx, c.items); got != c.want {
			t.Errorf("containsAll(%v) = %v", c.items, got)
		}
	}
}

func TestIntersect32(t *testing.T) {
	got := intersect32([]int32{1, 3, 5, 7}, []int32{2, 3, 7, 9})
	if !reflect.DeepEqual(got, []int32{3, 7}) {
		t.Fatalf("got %v", got)
	}
	if len(intersect32(nil, []int32{1})) != 0 {
		t.Fatal("nil intersection")
	}
}
