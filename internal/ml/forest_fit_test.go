package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceFit is the serial forest builder Fit replaced, kept as its
// differential oracle: tree after tree it draws the bootstrap sample and
// the builder seed, then grows the tree with a sort.Slice over row
// indices in the split search. f must set Trees, MaxDepth, MinLeaf and
// MaxFeatures.
func referenceFit(f *Forest, x [][]float64, y []float64) []*treeNode {
	rng := rand.New(rand.NewSource(f.Seed + 0x5deece66d))
	n := len(x)
	trees := make([]*treeNode, f.Trees)
	for t := range trees {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		b := &refBuilder{
			x: x, y: y, minLeaf: f.MinLeaf, maxFeat: f.MaxFeatures, d: len(x[0]),
			rng: rand.New(rand.NewSource(rng.Int63())),
		}
		trees[t] = b.build(idx, f.MaxDepth)
	}
	return trees
}

type refBuilder struct {
	x                   [][]float64
	y                   []float64
	minLeaf, maxFeat, d int
	rng                 *rand.Rand
}

func (b *refBuilder) build(idx []int, depth int) *treeNode {
	mean := 0.0
	for _, i := range idx {
		mean += b.y[i]
	}
	mean /= float64(len(idx))
	if depth == 0 || len(idx) < 2*b.minLeaf || constantTargets(b.y, idx) {
		return &treeNode{leafFlag: true, value: mean}
	}

	bestFeat, bestThresh, bestScore := -1, 0.0, math.Inf(1)
	feats := b.rng.Perm(b.d)[:b.maxFeat]
	sorted := make([]int, len(idx))
	for _, feat := range feats {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, c int) bool { return b.x[sorted[a]][feat] < b.x[sorted[c]][feat] })
		sumL, sqL := 0.0, 0.0
		sumT, sqT := 0.0, 0.0
		for _, i := range sorted {
			sumT += b.y[i]
			sqT += b.y[i] * b.y[i]
		}
		for k := 0; k < len(sorted)-1; k++ {
			yi := b.y[sorted[k]]
			sumL += yi
			sqL += yi * yi
			if b.x[sorted[k]][feat] == b.x[sorted[k+1]][feat] {
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
				bestThresh = (b.x[sorted[k]][feat] + b.x[sorted[k+1]][feat]) / 2
			}
		}
	}
	if bestFeat < 0 {
		return &treeNode{leafFlag: true, value: mean}
	}

	var loIdx, hiIdx []int
	for _, i := range idx {
		if b.x[i][bestFeat] <= bestThresh {
			loIdx = append(loIdx, i)
		} else {
			hiIdx = append(hiIdx, i)
		}
	}
	if len(loIdx) == 0 || len(hiIdx) == 0 {
		return &treeNode{leafFlag: true, value: mean}
	}
	return &treeNode{
		feature: bestFeat,
		thresh:  bestThresh,
		lo:      b.build(loIdx, depth-1),
		hi:      b.build(hiIdx, depth-1),
	}
}

// fitDataset is a seeded training set built to stress the split search's
// ties: y spans six decades, so a prefix sum taken in another order
// rounds differently.
func fitDataset(name string, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	target := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6))) }
	const n, d = 240, 7
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		y[i] = target()
		for j := range x[i] {
			switch name {
			case "ties": // four levels per feature
				x[i][j] = float64(rng.Intn(4)) / 2
			case "duplicates": // 30 distinct rows, eight copies each, each its own target
				if i >= 30 {
					x[i][j] = x[i%30][j]
				} else {
					x[i][j] = rng.Float64()
				}
			case "constant": // columns 0, 3 and 6 never vary
				if j%3 == 0 {
					x[i][j] = 1.5
				} else {
					x[i][j] = float64(rng.Intn(20))
				}
			}
		}
	}
	return x, y
}

// TestFitMatchesReference is the differential oracle of the parallel,
// pair-sorting Fit, which appends each tree's nodes straight into a
// node slice: on datasets heavy with tied values, duplicate rows and
// constant columns its nodes must equal, bit for bit, the flattened
// trees of the serial pointer-tree builder, and be exactly sized,
// whatever GOMAXPROCS is (CI runs it at -cpu 1,2,4 under -race).
func TestFitMatchesReference(t *testing.T) {
	for _, name := range []string{"ties", "duplicates", "constant"} {
		for _, f := range []Forest{
			{Trees: 9, MaxDepth: 16, MinLeaf: 2, MaxFeatures: 3, Seed: 7},
			{Trees: 5, MaxDepth: 4, MinLeaf: 1, MaxFeatures: 7, Seed: -3},
		} {
			t.Run(fmt.Sprintf("%s/minleaf%d", name, f.MinLeaf), func(t *testing.T) {
				x, y := fitDataset(name, 11)
				want := flatten(referenceFit(&f, x, y))
				if err := f.Fit(x, y); err != nil {
					t.Fatal(err)
				}
				if d := sameFlat(&f.flat, &want); d != "" {
					t.Fatal(d)
				}
				ff := &f.flat
				if cap(ff.roots) != len(ff.roots) || cap(ff.nodes) != len(ff.nodes) {
					t.Fatalf("%d roots (cap %d) and %d nodes (cap %d) not exactly sized",
						len(ff.roots), cap(ff.roots), len(ff.nodes), cap(ff.nodes))
				}
			})
		}
	}
}
