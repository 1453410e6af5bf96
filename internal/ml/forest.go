package ml

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Forest is a random-forest regressor: bootstrap-aggregated CART trees
// with per-split feature subsampling. Deterministic for a fixed Seed.
//
// The ensemble lives in one flattened slice of 16-byte nodes, which Fit
// builds and LoadModel decodes into; Predict and PredictInto walk it by
// index and perform no allocations, and WriteJSON writes the bundle
// form from it.
type Forest struct {
	// Trees is the ensemble size (default 100).
	Trees int
	// MaxDepth bounds tree depth (default 16).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 2).
	MinLeaf int
	// MaxFeatures is the number of features considered per split
	// (default ⌈d/3⌉, the regression heuristic).
	MaxFeatures int
	// Seed drives all randomness (bootstrap and feature subsampling).
	Seed int64

	flat flatForest
}

// leafFeature marks a leaf in a node's feature.
const leafFeature = int32(-1)

// flatForest is the ensemble: all nodes of all trees in one exactly
// sized slice, each tree in preorder and identified by its root index.
// A split's low child is the next node and its high child is hi, an
// absolute index, so a predict walk is index chasing over one dense
// slice: no pointers, no per-call allocation, one cache line per
// visited split.
type flatForest struct {
	roots []int32
	nodes []node
}

// node is one tree node. A split sends x to the next node when
// x[feature] <= x, to hi otherwise; a leaf has feature leafFeature, hi
// 0 and its prediction in x. Fit's builders and LoadModel lay each tree
// out alone, hi indexed from the tree's root; merge makes it absolute.
type node struct {
	feature int32
	hi      int32
	x       float64 // a split's threshold, a leaf's value
}

// merge lays the trees out one after another, in order, in one exactly
// sized slice.
func merge(trees [][]node) flatForest {
	total := 0
	for _, t := range trees {
		total += len(t)
	}
	ff := flatForest{roots: make([]int32, len(trees)), nodes: make([]node, 0, total)}
	for t, tree := range trees {
		root := int32(len(ff.nodes))
		ff.roots[t] = root
		for _, n := range tree {
			if n.feature != leafFeature {
				n.hi += root
			}
			ff.nodes = append(ff.nodes, n)
		}
	}
	return ff
}

// validate checks the structural invariants of a well-formed flattened
// forest: a tree at least, every root in bounds, and every split at i
// with its high child at i+1 < hi < len(nodes), which puts its low child
// i+1 in bounds too. Children point strictly forward (the preorder
// layout guarantee), which rules out cycles.
func (ff *flatForest) validate() error {
	if len(ff.roots) == 0 {
		return fmt.Errorf("ml: forest has no trees")
	}
	n := len(ff.nodes)
	for _, r := range ff.roots {
		if r < 0 || int(r) >= n {
			return fmt.Errorf("ml: forest root index %d out of bounds [0, %d)", r, n)
		}
	}
	for i, nd := range ff.nodes {
		if nd.feature == leafFeature {
			continue
		}
		if nd.feature < 0 {
			return fmt.Errorf("ml: forest node %d has invalid feature %d", i, nd.feature)
		}
		if int(nd.hi) <= i+1 || int(nd.hi) >= n {
			return fmt.Errorf("ml: forest node %d high child %d out of bounds (%d nodes)", i, nd.hi, n)
		}
	}
	return nil
}

// Name implements Regressor.
func (f *Forest) Name() string { return "RandomForest" }

// CheckFitted implements FitChecker: an error describes why the forest
// cannot predict (never fitted, or loaded from a corrupt bundle).
func (f *Forest) CheckFitted() error {
	if len(f.flat.roots) == 0 {
		return fmt.Errorf("ml: RandomForest is not fitted (no trees)")
	}
	return f.flat.validate()
}

// Fit implements Regressor.
func (f *Forest) Fit(x [][]float64, y []float64) error {
	if err := checkXY(x, y); err != nil {
		return err
	}
	nTrees := f.Trees
	if nTrees <= 0 {
		nTrees = 100
	}
	maxDepth := f.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 16
	}
	minLeaf := f.MinLeaf
	if minLeaf <= 0 {
		minLeaf = 2
	}
	d := len(x[0])
	maxFeat := f.MaxFeatures
	if maxFeat <= 0 {
		maxFeat = (d + 2) / 3
	}
	if maxFeat > d {
		maxFeat = d
	}

	// Every random draw comes from the forest's generator in tree order,
	// before any tree is built: each tree's bootstrap sample, then the
	// seed of its builder. The trees then do not depend on how many
	// goroutines build them or in which order they finish.
	rng := rand.New(rand.NewSource(f.Seed + 0x5deece66d))
	n := len(x)
	samples := make([][]int, nTrees)
	seeds := make([]int64, nTrees)
	for t := range samples {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		samples[t], seeds[t] = idx, rng.Int63()
	}
	// The builders read x a column at a time.
	cols := make([][]float64, d)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i, r := range x {
			cols[j][i] = r[j]
		}
	}
	trees := make([][]node, nTrees)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), nTrees); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := &treeBuilder{
				cols: cols, y: y,
				minLeaf: minLeaf, maxFeat: maxFeat,
				pairs: make([]valueTarget, n), hi: make([]int, n), perm: make([]int, d),
			}
			for t := int(next.Add(1) - 1); t < nTrees; t = int(next.Add(1) - 1) {
				b.rng = rand.New(rand.NewSource(seeds[t]))
				b.nodes = b.nodes[:0]
				b.build(samples[t], maxDepth)
				trees[t] = slices.Clone(b.nodes)
			}
		}()
	}
	wg.Wait()
	f.flat = merge(trees)
	return nil
}

// treeBuilder grows one tree at a time into nodes. pairs and hi are
// scratch sized to the bootstrap sample, and perm to the features,
// reused by every node of every tree the builder grows; nodes is reused
// by every tree.
type treeBuilder struct {
	cols    [][]float64 // x by column
	y       []float64
	minLeaf int
	maxFeat int
	rng     *rand.Rand
	pairs   []valueTarget
	hi      []int
	perm    []int
	nodes   []node
}

// valueTarget is one sample in the split search: its value of the
// candidate feature and its target.
type valueTarget struct{ v, y float64 }

// build appends the subtree over the samples idx to b.nodes in
// preorder. It reorders idx: the samples that go low end up first, each
// side in its original order.
func (b *treeBuilder) build(idx []int, depth int) {
	mean := 0.0
	for _, i := range idx {
		mean += b.y[i]
	}
	mean /= float64(len(idx))
	leaf := node{feature: leafFeature, x: mean}
	if depth == 0 || len(idx) < 2*b.minLeaf || constantTargets(b.y, idx) {
		b.nodes = append(b.nodes, leaf)
		return
	}

	bestFeat, bestThresh, bestScore := -1, 0.0, math.Inf(1)
	feats := b.sampleFeatures()
	sorted := b.pairs[:len(idx)]
	for _, feat := range feats {
		col := b.cols[feat]
		first, varies := col[idx[0]], false
		for k, i := range idx {
			v := col[i]
			sorted[k] = valueTarget{v, b.y[i]}
			varies = varies || v != first
		}
		// A constant feature has no threshold to split at.
		if !varies {
			continue
		}
		// sortByValue is the pdqsort sort.Slice runs too, so ties land
		// where the row-index sort of the reference builder put them.
		sortByValue(sorted)
		// Prefix sums for O(n) split scan.
		sumL, sqL := 0.0, 0.0
		sumT, sqT := 0.0, 0.0
		for _, p := range sorted {
			sumT += p.y
			sqT += p.y * p.y
		}
		for k := 0; k < len(sorted)-1; k++ {
			yi := sorted[k].y
			sumL += yi
			sqL += yi * yi
			// Can't split between equal feature values.
			if sorted[k].v == sorted[k+1].v {
				continue
			}
			nl := float64(k + 1)
			nr := float64(len(sorted) - k - 1)
			if int(nl) < b.minLeaf || int(nr) < b.minLeaf {
				continue
			}
			sseL := sqL - sumL*sumL/nl
			sumR := sumT - sumL
			sseR := (sqT - sqL) - sumR*sumR/nr
			if score := sseL + sseR; score < bestScore {
				bestScore = score
				bestFeat = feat
				bestThresh = (sorted[k].v + sorted[k+1].v) / 2
			}
		}
	}
	if bestFeat < 0 {
		b.nodes = append(b.nodes, leaf)
		return
	}

	// Stable partition in place: low samples move forward over the ones
	// already read, high ones wait in b.hi until the low side is done.
	nLo, hi, col := 0, b.hi[:0], b.cols[bestFeat]
	for _, i := range idx {
		if col[i] <= bestThresh {
			idx[nLo] = i
			nLo++
		} else {
			hi = append(hi, i)
		}
	}
	if nLo == 0 || len(hi) == 0 {
		b.nodes = append(b.nodes, leaf)
		return
	}
	copy(idx[nLo:], hi)
	n := len(b.nodes)
	b.nodes = append(b.nodes, node{feature: int32(bestFeat), x: bestThresh})
	b.build(idx[:nLo], depth-1)
	b.nodes[n].hi = int32(len(b.nodes))
	b.build(idx[nLo:], depth-1)
}

// sampleFeatures draws a node's candidate features into b.perm with
// rand.Perm's own loop, so the draws, and so the trees, are the ones
// Perm gives, and returns the first maxFeat. The node's split search is
// done with them before its children draw theirs.
func (b *treeBuilder) sampleFeatures() []int {
	p := b.perm
	for i := range p {
		j := b.rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p[:b.maxFeat]
}

func constantTargets(y []float64, idx []int) bool {
	first := y[idx[0]]
	for _, i := range idx[1:] {
		if y[i] != first {
			return false
		}
	}
	return true
}

// Predict implements Regressor: it is PredictInto over one row, so the
// two never disagree. It performs no allocations. An unfitted forest
// returns NaN — callers that can surface errors should gate on
// CheckFitted (the model layer does), and NaN poisons any downstream
// arithmetic instead of masquerading as a confident zero prediction.
func (f *Forest) Predict(x []float64) float64 {
	var y [1]float64
	f.PredictInto(y[:], [][]float64{x})
	return y[0]
}

// PredictInto implements BatchRegressor: it fills dst[i] with the
// prediction for rows[i], allocation-free. dst must be at least as long
// as rows. The walk is tree-major: each tree runs over the whole batch
// before the next tree starts, so one tree's nodes stay in cache.
//
// A batch whose every column is monotone down the rows (monotone) — a
// kernel's model input over an ascending clock table is one — takes the
// range walk instead: a split sends a prefix of such a range one way
// and the suffix the other, so each tree takes the whole row range at
// its root, binary-searches the cut at each split and adds each leaf
// value to its sub-range (walkRange). Any other batch, a single row
// included, walks each row down each tree.
//
// Either way each row adds its leaf values in tree order, starting from
// zero, and is divided by the tree count once at the end — the same
// additions in the same order as a row-at-a-time walk, so the results
// are bit-identical to it.
func (f *Forest) PredictInto(dst []float64, rows [][]float64) {
	dst = dst[:len(rows)]
	ff := &f.flat
	if len(ff.roots) == 0 {
		for i := range dst {
			dst[i] = math.NaN()
		}
		return
	}
	nodes := ff.nodes
	clear(dst)
	ranged := monotone(rows)
	for _, root := range ff.roots {
		if ranged {
			ff.walkRange(dst, rows, root, 0, len(rows))
			continue
		}
		for i, x := range rows {
			n := root
			for nodes[n].feature >= 0 {
				if x[nodes[n].feature] <= nodes[n].x {
					n++
				} else {
					n = nodes[n].hi
				}
			}
			dst[i] += nodes[n].x
		}
	}
	trees := float64(len(ff.roots))
	for i := range dst {
		dst[i] /= trees
	}
}

// monotone reports whether a batch can take the range walk: at least
// two rows, all of one length, and every column non-decreasing or
// non-increasing down the rows with no NaN. For such a column and any
// threshold t, the rows with x <= t are a prefix of every row range
// (non-decreasing) or a suffix (non-increasing).
func monotone(rows [][]float64) bool {
	if len(rows) < 2 {
		return false
	}
	d := len(rows[0])
	for _, r := range rows[1:] {
		if len(r) != d {
			return false
		}
	}
	for j := 0; j < d; j++ {
		prev := rows[0][j]
		if math.IsNaN(prev) {
			return false
		}
		up, down := true, true
		for _, r := range rows[1:] {
			x := r[j]
			switch {
			case x > prev:
				down = false
			case x < prev:
				up = false
			case x != prev: // NaN
				return false
			}
			if !up && !down {
				return false
			}
			prev = x
		}
	}
	return true
}

// walkRange adds the leaf values of the subtree at node n to dst[a:b]:
// every row in rows[a:b] reaches n, and the batch is monotone. At a
// split whose first and last rows go the same way the whole range
// follows them; otherwise a binary search finds the first row that goes
// the other way, one side recurses and the other continues the loop.
func (ff *flatForest) walkRange(dst []float64, rows [][]float64, n int32, a, b int) {
	for ff.nodes[n].feature >= 0 {
		j, t := ff.nodes[n].feature, ff.nodes[n].x
		first := rows[a][j] <= t
		if first == (rows[b-1][j] <= t) {
			if first {
				n++
			} else {
				n = ff.nodes[n].hi
			}
			continue
		}
		// Row a goes one way and row b-1 the other: c becomes the
		// first row of the range that does not go row a's way.
		c, end := a+1, b-1
		for c < end {
			mid := int(uint(c+end) >> 1)
			if (rows[mid][j] <= t) == first {
				c = mid + 1
			} else {
				end = mid
			}
		}
		head, tail := n+1, ff.nodes[n].hi
		if !first {
			head, tail = tail, head
		}
		ff.walkRange(dst, rows, head, a, c)
		n, a = tail, c
	}
	v := ff.nodes[n].x
	for i := a; i < b; i++ {
		dst[i] += v
	}
}
