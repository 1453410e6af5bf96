package ml

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// rangeTestForests returns the small forests FuzzForestPredictInto
// draws from, all over three features, each with its pointer trees:
// fitted ones of 1, 4 and 9 trees, whose pointer trees come from the
// serial reference builder and whose training values sit on a 0.5 grid,
// so batch values on the 0.25 grid land exactly on their thresholds,
// and one hand-built forest, flattened, with a NaN and two infinite
// thresholds, which no fit produces.
func rangeTestForests(tb testing.TB) ([]*Forest, []refForest) {
	tb.Helper()
	rng := rand.New(rand.NewSource(17))
	x := make([][]float64, 60)
	y := make([]float64, len(x))
	for i := range x {
		x[i] = []float64{
			float64(rng.Intn(13)-6) / 2,
			float64(rng.Intn(13)-6) / 2,
			rng.Float64()*6 - 3,
		}
		y[i] = x[i][0]*x[i][1] - math.Abs(x[i][2]) + 0.1*rng.NormFloat64()
	}
	var forests []*Forest
	var refs []refForest
	for _, f := range []*Forest{
		{Trees: 1, MaxDepth: 16, MinLeaf: 1, MaxFeatures: 1, Seed: 1},
		{Trees: 4, MaxDepth: 3, MinLeaf: 2, MaxFeatures: 1, Seed: 2},
		{Trees: 9, MaxDepth: 16, MinLeaf: 1, MaxFeatures: 3, Seed: 3},
	} {
		if err := f.Fit(x, y); err != nil {
			tb.Fatal(err)
		}
		forests = append(forests, f)
		refs = append(refs, referenceFit(f, x, y))
	}
	leaf := func(v float64) *treeNode { return &treeNode{leafFlag: true, value: v} }
	split := func(feature int, thresh float64, lo, hi *treeNode) *treeNode {
		return &treeNode{feature: feature, thresh: thresh, lo: lo, hi: hi}
	}
	odd := refForest{
		split(0, 0.25,
			split(1, math.Inf(1), split(0, -1, leaf(1), leaf(2)), leaf(3)),
			split(2, math.NaN(), leaf(4), split(1, math.Inf(-1), leaf(5), split(2, 0.5, leaf(6), leaf(7))))),
		split(2, 0, leaf(-1), leaf(-2)),
	}
	return append(forests, &Forest{flat: flatten(odd)}), append(refs, odd)
}

// Column kinds FuzzForestPredictInto builds a batch from. Every kind
// before colNonMonotone keeps its column monotone.
const (
	colAscending = iota
	colDescending
	colConstant
	colTied    // ascending over a few values, -0 and +0 among them
	colInfUp   // ascending from -Inf to +Inf
	colInfDown // descending from +Inf to -Inf
	colNonMonotone
	colNaN // ascending with one NaN
	colKinds
)

// rangeTestColumn fills column j of rows with kind's values.
func rangeTestColumn(rng *rand.Rand, rows [][]float64, j, kind int) {
	n := len(rows)
	draw := func() float64 {
		if rng.Intn(2) == 0 {
			return float64(rng.Intn(25)-12) / 4
		}
		return rng.Float64()*6 - 3
	}
	col := make([]float64, n)
	for i := range col {
		col[i] = draw()
	}
	switch kind {
	case colAscending, colNaN:
		sort.Float64s(col)
	case colDescending:
		sort.Sort(sort.Reverse(sort.Float64Slice(col)))
	case colConstant:
		for i := range col {
			col[i] = col[0]
		}
	case colTied:
		vals := []float64{math.Copysign(0, -1), 0, 0.25, 0.5}
		for i := range col {
			col[i] = vals[rng.Intn(len(vals))]
		}
		sort.Float64s(col)
	case colInfUp, colInfDown:
		sort.Float64s(col)
		if n > 0 {
			col[0], col[n-1] = math.Inf(-1), math.Inf(1)
		}
		if kind == colInfDown {
			sort.Sort(sort.Reverse(sort.Float64Slice(col)))
		}
	}
	if kind == colNaN && n > 0 {
		col[rng.Intn(n)] = math.NaN()
	}
	for i, r := range rows {
		r[j] = col[i]
	}
}

// PredictInto walks monotone batches as row ranges and every other
// batch row by row; both must be bit-identical to the walk over the
// forest's pointer trees on every row (NaN equal to NaN), write nothing
// past the batch, and take the range walk exactly when they may. The
// batches mix ascending, descending, constant and tied columns with
// non-monotone ones, NaN and ±Inf, and run from 0 rows up.
func FuzzForestPredictInto(f *testing.F) {
	forests, refs := rangeTestForests(f)
	pack := func(a, b, c int) uint32 { return uint32(a | b<<4 | c<<8) }
	f.Add(uint8(0), uint8(0), pack(colAscending, colAscending, colAscending), int64(1))
	f.Add(uint8(1), uint8(1), pack(colDescending, colConstant, colTied), int64(2))
	f.Add(uint8(2), uint8(2), pack(colAscending, colDescending, colInfUp), int64(3))
	f.Add(uint8(3), uint8(24), pack(colTied, colInfDown, colConstant), int64(4))
	f.Add(uint8(2), uint8(31), pack(colAscending, colNonMonotone, colDescending), int64(5))
	f.Add(uint8(1), uint8(17), pack(colNaN, colAscending, colAscending), int64(6))
	f.Add(uint8(3), uint8(9), pack(colInfUp, colTied, colNaN), int64(7))
	f.Fuzz(func(t *testing.T, which, n uint8, kinds uint32, seed int64) {
		forest, ref := forests[int(which)%len(forests)], refs[int(which)%len(forests)]
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]float64, int(n)%40)
		for i := range rows {
			rows[i] = make([]float64, 3)
		}
		allMonotone, hasNaN := true, false
		for j := 0; j < 3; j++ {
			kind := int(kinds>>(4*j)&0xf) % colKinds
			rangeTestColumn(rng, rows, j, kind)
			allMonotone = allMonotone && kind < colNonMonotone
			hasNaN = hasNaN || kind == colNaN
		}
		if got := monotone(rows); allMonotone && len(rows) >= 2 && !got {
			t.Fatalf("monotone batch of %d rows refused the range walk", len(rows))
		} else if got && (hasNaN || len(rows) < 2) {
			t.Fatalf("batch of %d rows (NaN %v) took the range walk", len(rows), hasNaN)
		}
		const sentinel = 12345.5
		dst := make([]float64, len(rows)+1)
		dst[len(rows)] = sentinel
		forest.PredictInto(dst, rows)
		if dst[len(rows)] != sentinel {
			t.Fatalf("PredictInto wrote past the batch: %v", dst[len(rows)])
		}
		for i, row := range rows {
			want := ref.predict(row)
			if !sameBits(dst[i], want) {
				t.Fatalf("row %d of %d %v: PredictInto %v != reference %v", i, len(rows), row, dst[i], want)
			}
			if got := forest.Predict(row); !sameBits(got, want) {
				t.Fatalf("row %d %v: Predict %v != reference %v", i, row, got, want)
			}
		}
	})
}

// sameBits reports whether a and b have the same float64 bits, any NaN
// equal to any other.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// BenchmarkForestPredictInto runs an 80-tree forest over one clock
// table shaped like the model layer's input (constant mix fractions,
// then f, 1/f and mix/f over 196 ascending clocks): "ordered" is the
// batch as the model layer builds it, which takes the range walk, and
// "shuffled" the same rows in a fixed random order, which walks each
// row down each tree.
func BenchmarkForestPredictInto(b *testing.B) {
	const mixes, clocks = 4, 196
	row := func(mix []float64, fGHz float64) []float64 {
		r := append([]float64(nil), mix...)
		r = append(r, fGHz, 1/fGHz)
		for _, m := range mix {
			r = append(r, m/fGHz)
		}
		return r
	}
	rng := rand.New(rand.NewSource(23))
	var x [][]float64
	var y []float64
	for k := 0; k < 24; k++ {
		mix := make([]float64, mixes)
		for i := range mix {
			mix[i] = rng.Float64()
		}
		for c := 0; c < clocks; c += 4 {
			fGHz := 0.135 + float64(c)*0.0075
			x = append(x, row(mix, fGHz))
			y = append(y, mix[0]/fGHz+mix[1]+fGHz*fGHz*mix[2])
		}
	}
	f := &Forest{Trees: 80, Seed: 7}
	if err := f.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	mix := []float64{0.3, 0.1, 0.5, 0.1}
	ordered := make([][]float64, clocks)
	for c := range ordered {
		ordered[c] = row(mix, 0.135+float64(c)*0.0075)
	}
	shuffled := append([][]float64(nil), ordered...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	dst := make([]float64, clocks)
	for _, bc := range []struct {
		name string
		rows [][]float64
	}{{"ordered", ordered}, {"shuffled", shuffled}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.PredictInto(dst, bc.rows)
			}
			b.ReportMetric(float64(clocks), "preds/op")
		})
	}
}
