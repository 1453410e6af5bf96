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
	idx := int32(len(ff.feature))
	if n.leafFlag {
		ff.feature = append(ff.feature, leafFeature)
		ff.thresh = append(ff.thresh, 0)
		ff.lo = append(ff.lo, 0)
		ff.hi = append(ff.hi, 0)
		ff.value = append(ff.value, n.value)
		return idx
	}
	ff.feature = append(ff.feature, int32(n.feature))
	ff.thresh = append(ff.thresh, n.thresh)
	ff.lo = append(ff.lo, 0)
	ff.hi = append(ff.hi, 0)
	ff.value = append(ff.value, 0)
	ff.lo[idx] = ff.flattenInto(n.lo)
	ff.hi[idx] = ff.flattenInto(n.hi)
	return idx
}

// flatten lays pointer trees out as the flat forest's arrays.
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
// or a node's split feature, children, or the bits of its threshold or
// value. "" means identical.
func sameFlat(got, want *flatForest) string {
	if len(got.roots) != len(want.roots) || len(got.feature) != len(want.feature) {
		return fmt.Sprintf("%d trees of %d nodes, want %d of %d", len(got.roots), len(got.feature), len(want.roots), len(want.feature))
	}
	for i := range want.roots {
		if got.roots[i] != want.roots[i] {
			return fmt.Sprintf("tree %d at node %d, want %d", i, got.roots[i], want.roots[i])
		}
	}
	for i := range want.feature {
		if got.feature[i] != want.feature[i] || got.lo[i] != want.lo[i] || got.hi[i] != want.hi[i] ||
			math.Float64bits(got.thresh[i]) != math.Float64bits(want.thresh[i]) ||
			math.Float64bits(got.value[i]) != math.Float64bits(want.value[i]) {
			return fmt.Sprintf("node %d: x[%d] <= %v (lo %d, hi %d) value %v, want x[%d] <= %v (lo %d, hi %d) value %v",
				i, got.feature[i], got.thresh[i], got.lo[i], got.hi[i], got.value[i],
				want.feature[i], want.thresh[i], want.lo[i], want.hi[i], want.value[i])
		}
	}
	return ""
}
