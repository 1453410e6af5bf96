package ml

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// testForestData is a deterministic nonlinear surface wide enough to
// produce real splits on every feature.
func testForestData(n, d int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(11))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()*4 - 2
		}
		x[i] = row
		y[i] = math.Sin(row[0]) + row[1]*row[1] + 0.25*row[d-1] + 0.01*rng.NormFloat64()
	}
	return x, y
}

// fitTestForest trains a small forest on testForestData, with every
// parameter set so that referenceFit can grow the same trees.
func fitTestForest(t *testing.T, trees, n, d int) (*Forest, [][]float64) {
	t.Helper()
	x, y := testForestData(n, d)
	f := &Forest{Trees: trees, MaxDepth: 16, MinLeaf: 2, MaxFeatures: (d + 2) / 3, Seed: 3}
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	return f, x
}

// The flattened index-walking Predict must be bit-identical to the
// pointer-tree walk over the serial reference builder's trees on every
// input, including points far outside the training range.
func TestFlattenedPredictMatchesReference(t *testing.T) {
	f, x := fitTestForest(t, 24, 400, 6)
	_, y := testForestData(400, 6)
	ref := refForest(referenceFit(f, x, y))
	rng := rand.New(rand.NewSource(5))
	probe := make([]float64, 6)
	for trial := 0; trial < 2000; trial++ {
		var row []float64
		if trial < len(x) {
			row = x[trial]
		} else {
			for j := range probe {
				probe[j] = rng.Float64()*20 - 10
			}
			row = probe
		}
		got := f.Predict(row)
		want := ref.predict(row)
		if got != want {
			t.Fatalf("trial %d: flattened %v != reference %v", trial, got, want)
		}
	}
}

func TestPredictIntoMatchesPredict(t *testing.T) {
	f, x := fitTestForest(t, 12, 200, 4)
	dst := make([]float64, len(x))
	f.PredictInto(dst, x)
	for i, row := range x {
		if want := f.Predict(row); dst[i] != want {
			t.Fatalf("row %d: PredictInto %v != Predict %v", i, dst[i], want)
		}
	}
	// The generic batch helper must route through the same path.
	dst2 := make([]float64, len(x))
	PredictAllInto(f, dst2, x)
	for i := range dst {
		if dst[i] != dst2[i] {
			t.Fatalf("row %d: PredictAllInto diverges", i)
		}
	}
}

// An unfit forest must not serve a silent zero: Predict returns NaN and
// CheckFitted explains why.
func TestUnfitForestGuards(t *testing.T) {
	var f Forest
	if got := f.Predict([]float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("unfit Predict = %v, want NaN", got)
	}
	dst := make([]float64, 2)
	f.PredictInto(dst, [][]float64{{1}, {2}})
	for i, v := range dst {
		if !math.IsNaN(v) {
			t.Errorf("unfit PredictInto dst[%d] = %v, want NaN", i, v)
		}
	}
	if err := f.CheckFitted(); err == nil || !strings.Contains(err.Error(), "not fitted") {
		t.Errorf("CheckFitted = %v, want descriptive not-fitted error", err)
	}
	fitted, _ := fitTestForest(t, 4, 50, 3)
	if err := fitted.CheckFitted(); err != nil {
		t.Errorf("fitted forest CheckFitted = %v", err)
	}
}

func TestCheckFittedAcrossAlgorithms(t *testing.T) {
	for _, r := range []Regressor{&Linear{}, &Lasso{Alpha: 0.001}, &Forest{Trees: 4}, &SVR{}} {
		if err := CheckFitted(r); err == nil {
			t.Errorf("%s: unfit model passed CheckFitted", r.Name())
		}
	}
	x := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 1}, {1, 2}}
	y := []float64{0, 1, 2, 3, 4, 5}
	for _, r := range []Regressor{&Linear{}, &Lasso{Alpha: 0.001}, &Forest{Trees: 4, MinLeaf: 1}, &SVR{C: 10, Gamma: 0.5}} {
		if err := r.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if err := CheckFitted(r); err != nil {
			t.Errorf("%s: fitted model failed CheckFitted: %v", r.Name(), err)
		}
	}
}

// Persistence must reject bundles whose tree arrays are empty, and a
// round-trip must preserve predictions bit-exactly and decode into
// exactly the arrays that were saved.
func TestForestPersistValidation(t *testing.T) {
	if _, err := LoadModel(strings.NewReader(`{"algo":"RandomForest","data":{"trees":[]}}`)); err == nil {
		t.Error("empty-tree forest bundle accepted")
	}

	f, x := fitTestForest(t, 8, 120, 4)
	loaded, err := LoadModel(bytes.NewReader(saveModel(t, f)))
	if err != nil {
		t.Fatal(err)
	}
	lf, ok := loaded.(*Forest)
	if !ok {
		t.Fatalf("loaded %T, want *Forest", loaded)
	}
	if err := lf.CheckFitted(); err != nil {
		t.Fatal(err)
	}
	if d := sameFlat(&lf.flat, &f.flat); d != "" {
		t.Fatal(d)
	}
	for i, row := range x {
		if got, want := lf.Predict(row), f.Predict(row); got != want {
			t.Fatalf("row %d: loaded %v != original %v", i, got, want)
		}
	}
}

// A node is one 16-byte record: a split visited by a walk costs one
// cache line.
func TestNodeIsSixteenBytes(t *testing.T) {
	if n := unsafe.Sizeof(node{}); n != 16 {
		t.Fatalf("node is %d bytes, want 16", n)
	}
}

func TestFlatForestValidate(t *testing.T) {
	f, _ := fitTestForest(t, 4, 60, 3)
	if err := f.flat.validate(); err != nil {
		t.Fatal(err)
	}
	nodes := f.flat.nodes
	n := int32(len(nodes))
	// The last split: the nodes behind it are real ones.
	i := int32(-1)
	for j, nd := range nodes {
		if nd.feature != leafFeature {
			i = int32(j)
		}
	}
	if i < 1 {
		t.Fatal("no split past the first node in the test forest")
	}
	// Each case corrupts one copy of the nodes.
	for name, corrupt := range map[string]func(nodes []node){
		"split in the last slot":    func(nodes []node) { nodes[n-1] = node{feature: 0, hi: n - 1} },
		"high child is the low one": func(nodes []node) { nodes[i].hi = i + 1 },
		"high child is the split":   func(nodes []node) { nodes[i].hi = i },
		"high child behind":         func(nodes []node) { nodes[i].hi = i - 1 },
		"high child negative":       func(nodes []node) { nodes[i].hi = -5 },
		"high child at the end":     func(nodes []node) { nodes[i].hi = n },
		"high child past the end":   func(nodes []node) { nodes[i].hi = n + 7 },
		"negative split feature":    func(nodes []node) { nodes[i].feature = -2 },
	} {
		broken := flatForest{roots: f.flat.roots, nodes: slices.Clone(nodes)}
		corrupt(broken.nodes)
		if err := broken.validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	empty := flatForest{}
	if err := empty.validate(); err == nil {
		t.Error("empty flat forest accepted")
	}
	if err := (&flatForest{roots: []int32{0}}).validate(); err == nil {
		t.Error("forest with no nodes accepted")
	}
	if err := (&flatForest{roots: []int32{1}, nodes: []node{{feature: leafFeature}}}).validate(); err == nil {
		t.Error("root out of bounds accepted")
	}
}
