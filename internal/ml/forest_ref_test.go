package ml

import (
	"fmt"
	"math"
)

// The pointer-linked trees a forest was once stored as, kept as the
// oracle of the flat forest: the serial reference builder
// (referenceFit) grows them, flatten lays them out as the production
// arrays must be laid out, and refForest.predict walks them.

type treeNode struct {
	feature  int
	thresh   float64
	value    float64 // leaf prediction
	lo, hi   *treeNode
	leafFlag bool
}

// flattenInto appends one pointer tree in preorder and returns its root
// index.
func (ff *flatForest) flattenInto(n *treeNode) int32 {
	idx := int32(len(ff.nodes))
	if n.leafFlag {
		ff.nodes = append(ff.nodes, node{feature: leafFeature, x: n.value})
		return idx
	}
	ff.nodes = append(ff.nodes, node{feature: int32(n.feature), x: n.thresh})
	ff.flattenInto(n.lo)
	ff.nodes[idx].hi = ff.flattenInto(n.hi)
	return idx
}

// flatten lays pointer trees out as the flat forest's nodes.
func flatten(trees []*treeNode) flatForest {
	var ff flatForest
	ff.roots = make([]int32, 0, len(trees))
	for _, t := range trees {
		ff.roots = append(ff.roots, ff.flattenInto(t))
	}
	return ff
}

// refForest is an ensemble of pointer trees.
type refForest []*treeNode

// predict walks each pointer tree in turn, adding each tree's leaf value
// to a sum that starts at zero and dividing by the tree count at the
// end: the additions the flat walks must make, in the same order.
func (r refForest) predict(x []float64) float64 {
	if len(r) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, t := range r {
		s += t.predict(x)
	}
	return s / float64(len(r))
}

func (n *treeNode) predict(x []float64) float64 {
	for !n.leafFlag {
		if x[n.feature] <= n.thresh {
			n = n.lo
		} else {
			n = n.hi
		}
	}
	return n.value
}

// sameFlat reports where got first differs from want: the tree roots,
// or a node's split feature, high child, or the bits of its threshold or
// value. "" means identical.
func sameFlat(got, want *flatForest) string {
	if len(got.roots) != len(want.roots) || len(got.nodes) != len(want.nodes) {
		return fmt.Sprintf("%d trees of %d nodes, want %d of %d", len(got.roots), len(got.nodes), len(want.roots), len(want.nodes))
	}
	for i := range want.roots {
		if got.roots[i] != want.roots[i] {
			return fmt.Sprintf("tree %d at node %d, want %d", i, got.roots[i], want.roots[i])
		}
	}
	for i, w := range want.nodes {
		if g := got.nodes[i]; g.feature != w.feature || g.hi != w.hi || math.Float64bits(g.x) != math.Float64bits(w.x) {
			return fmt.Sprintf("node %d: {feature %d, hi %d, x %v}, want {feature %d, hi %d, x %v}",
				i, g.feature, g.hi, g.x, w.feature, w.hi, w.x)
		}
	}
	return ""
}
