package mltree

import (
	"fmt"
	"math"
	"slices"
)

// The serving form: every fitted model compiles its trees into one packed
// arena. A node is 16 bytes — threshold, feature, next — stored in preorder,
// so the left child of node i is implicitly i+1 and only the right child
// needs an index; a descent touches one small, mostly-forward run of
// memory. At a leaf, next is instead an offset into the arena's single
// contiguous leaf table. Compilation preserves the exact comparison sequence
// (same feature, same threshold, same ≤ test), and the serving loops keep
// the pointer walk's per-class summation order, so arena predictions are
// bit-identical to pointer navigation; equivalence_test.go and
// serve_test.go assert it.
//
// The arena is a derived, in-memory artifact: serialization still writes
// the pointer form (which importance and Save keep reading), and loading
// recompiles (see serialize.go), which keeps the on-disk format unchanged.

// node is one packed arena node.
type node struct {
	threshold float64
	feature   int32 // split feature, or flatLeaf
	next      int32 // right child's node index, or a leaf's table offset
}

// flatLeaf marks a leaf node's feature.
const flatLeaf = int32(-1)

// arena is a model's trees compiled back-to-back, navigated from per-tree
// root indices. Each leaf owns a fixed-width run of the leaf table: the
// class probabilities for classification trees, the leaf value for
// boosting.
type arena struct {
	nodes  []node
	leaves []float64
	roots  []int32
}

// newArena sizes an arena for trees exactly — a full binary tree with L
// leaves has 2L-1 nodes — so no append slack outlives compilation.
func newArena(trees []*treeNode, width int) *arena {
	leaves := 0
	for _, t := range trees {
		leaves += t.countLeaves()
	}
	return &arena{
		nodes:  make([]node, 0, max(2*leaves-len(trees), 0)),
		leaves: make([]float64, 0, leaves*width),
		roots:  make([]int32, 0, len(trees)),
	}
}

// add appends root's tree in preorder; leaf appends a leaf's payload to
// a.leaves. It refuses shapes the descent cannot serve: a missing root or
// child, and a split feature outside int32's non-negative range.
func (a *arena) add(root *treeNode, leaf func(*treeNode) error) error {
	a.roots = append(a.roots, int32(len(a.nodes)))
	var walk func(n *treeNode) error
	walk = func(n *treeNode) error {
		switch {
		case n == nil:
			return fmt.Errorf("mltree: tree %d is missing a node", len(a.roots)-1)
		case n.isLeaf():
			a.nodes = append(a.nodes, node{feature: flatLeaf, next: int32(len(a.leaves))})
			return leaf(n)
		case n.Feature < 0 || n.Feature > math.MaxInt32:
			return fmt.Errorf("mltree: tree %d splits on feature %d", len(a.roots)-1, n.Feature)
		}
		i := len(a.nodes)
		a.nodes = append(a.nodes, node{threshold: n.Threshold, feature: int32(n.Feature)})
		if err := walk(n.Left); err != nil {
			return err
		}
		a.nodes[i].next = int32(len(a.nodes))
		return walk(n.Right)
	}
	return walk(root)
}

// leaf descends from node i and returns the leaf-table offset x lands on.
func (a *arena) leaf(i int32, x []float64) int32 {
	for {
		n := &a.nodes[i]
		if n.feature == flatLeaf {
			return n.next
		}
		if x[n.feature] <= n.threshold {
			i++
		} else {
			i = n.next
		}
	}
}

// compileVotes compiles classification trees, each with its own class
// list, into one arena whose leaves hold probabilities already aligned to
// classes (a member listing fewer classes gets 0 in the other columns). It
// refuses a member label absent from classes, a repeated member label, and
// a leaf whose probability count differs from its member's class count.
func compileVotes(classes []int, roots []*treeNode, memberClasses [][]int) (*arena, error) {
	k := len(classes)
	a := newArena(roots, k)
	idx := classIndex(classes)
	for t, root := range roots {
		cols := make([]int, len(memberClasses[t]))
		seen := make(map[int]bool, len(cols))
		for i, c := range memberClasses[t] {
			col, ok := idx[c]
			if !ok {
				return nil, fmt.Errorf("mltree: tree %d has class %d, absent from the model's classes %v", t, c, classes)
			}
			if seen[c] {
				return nil, fmt.Errorf("mltree: tree %d lists class %d twice", t, c)
			}
			seen[c] = true
			cols[i] = col
		}
		err := a.add(root, func(n *treeNode) error {
			if len(n.Probs) != len(cols) {
				return fmt.Errorf("mltree: tree %d has a leaf with %d probabilities for %d classes", t, len(n.Probs), len(cols))
			}
			off := len(a.leaves)
			a.leaves = slices.Grow(a.leaves, k)[:off+k] // never written: zero
			for i, p := range n.Probs {
				a.leaves[off+cols[i]] = p
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return a, nil
}

// meanProbaInto writes into dst the mean over the arena's trees of each
// tree's aligned leaf distribution: classes summed in tree order, then
// scaled once — the pointer walk's exact floating-point sequence. A single
// tree is the one-member mean (0+p and p×1 are exact). An unfitted (nil)
// arena yields zeros.
func (a *arena) meanProbaInto(dst, x []float64) {
	clear(dst)
	if a == nil || len(a.roots) == 0 {
		return
	}
	for _, r := range a.roots {
		p := a.leaves[a.leaf(r, x):][:len(dst)]
		for c, v := range p {
			dst[c] += v
		}
	}
	inv := 1 / float64(len(a.roots))
	for c := range dst {
		dst[c] *= inv
	}
}

// chains is the serving form shared by GBDT and HistGBDT: every one-vs-rest
// arm's boosting chain compiled into one arena, leaves holding the leaf
// value. Arm a owns roots[arms[a-1].end:arms[a].end].
type chains struct {
	*arena
	arms []chainArm
}

type chainArm struct {
	bias, lr float64
	end      int
}

// compileChains compiles the boosters' chains, in arm order.
func compileChains(boosters []*booster) (*chains, error) {
	var all []*treeNode
	for _, b := range boosters {
		all = append(all, b.Trees...)
	}
	a := newArena(all, 1)
	value := func(n *treeNode) error {
		a.leaves = append(a.leaves, n.Value)
		return nil
	}
	ch := &chains{arena: a, arms: make([]chainArm, len(boosters))}
	for i, b := range boosters {
		for _, t := range b.Trees {
			if err := a.add(t, value); err != nil {
				return nil, err
			}
		}
		ch.arms[i] = chainArm{bias: b.Bias, lr: b.LR, end: len(a.roots)}
	}
	return ch, nil
}

// margin accumulates lr × leaf-value over arm's chain, in tree order — the
// same floating-point sequence as summing the pointer walk.
func (ch *chains) margin(arm int, x []float64) float64 {
	lo := 0
	if arm > 0 {
		lo = ch.arms[arm-1].end
	}
	m := ch.arms[arm]
	s := m.bias
	for _, r := range ch.roots[lo:m.end] {
		s += m.lr * ch.leaves[ch.leaf(r, x)]
	}
	return s
}

// probaInto writes class probabilities into dst (len = number of classes):
// the sigmoid margin for binary problems, or normalised one-vs-rest
// sigmoids for multi-class. An unfitted (nil) chain set yields zeros.
func (ch *chains) probaInto(dst, x []float64) {
	clear(dst)
	if ch == nil || len(ch.arms) == 0 {
		return
	}
	if len(dst) == 2 {
		p := sigmoid(ch.margin(0, x))
		dst[0] = 1 - p
		dst[1] = p
		return
	}
	total := 0.0
	for a := range ch.arms {
		p := sigmoid(ch.margin(a, x))
		dst[a] = p
		total += p
	}
	if total > 0 {
		for a := range dst {
			dst[a] /= total
		}
	} else {
		for a := range dst {
			dst[a] = 1 / float64(len(dst))
		}
	}
}
