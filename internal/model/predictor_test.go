package model

import (
	"math"
	"sync"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/ml"
)

var (
	bundleMu sync.Mutex
	bundles  = map[[2]string]*Models{}
)

// trainedBundle trains a bundle of algo on the device with a coarse
// training stride, once per device and algorithm per test binary
// (fitting is the expensive part; the sweeps themselves are memoized
// full-resolution in the sweep engine).
func trainedBundle(t testing.TB, spec *hw.Spec, algo string) *Models {
	t.Helper()
	bundleMu.Lock()
	defer bundleMu.Unlock()
	key := [2]string{spec.Name, algo}
	if m, ok := bundles[key]; ok {
		return m
	}
	m, err := TrainDefault(spec, algo, 16)
	if err != nil {
		t.Fatal(err)
	}
	bundles[key] = m
	return m
}

// forestBundle is the device's trainedBundle of the forest.
func forestBundle(t testing.TB, spec *hw.Spec) *Models {
	t.Helper()
	return trainedBundle(t, spec, AlgoForest)
}

// The flattened forest is the only form a forest keeps; the oracle of
// its walks is the pointer trees that encoding/json decodes from the
// bundle's saved bytes. Across every builtin device, every suite
// benchmark and every supported frequency, all four target models must
// agree bit-for-bit, both one row at a time (Predict) and over the
// device's whole clock table at once (PredictInto, whose clock-table
// batches take the range walk).
func TestFlattenedForestMatchesReferenceAcrossDevices(t *testing.T) {
	devices := hw.BuiltinSpecs()
	freqStep := 1
	if raceEnabled {
		// Race instrumentation makes the full 4-device x 23-benchmark x
		// full-frequency-table matrix prohibitively slow; bit-exactness
		// is established by the !race run, so keep a representative
		// slice alive under the detector.
		devices = map[string]*hw.Spec{"v100": hw.V100()}
		freqStep = 8
	}
	for name, spec := range devices {
		t.Run(name, func(t *testing.T) {
			m := forestBundle(t, spec)
			ref, err := refDecode(saveBundle(t, m))
			if err != nil {
				t.Fatal(err)
			}
			type pair struct {
				flat *ml.Forest
				ref  *refForest
			}
			tree := func(model, decoded any) pair {
				return pair{model.(*ml.Forest), decoded.(refEnvelope).Data.(*refForest)}
			}
			forests := map[string]pair{
				"time": tree(m.Time, ref.Time), "energy": tree(m.Energy, ref.Energy),
				"edp": tree(m.EDP, ref.EDP), "ed2p": tree(m.ED2P, ref.ED2P),
			}
			rows := make([][]float64, len(spec.CoreFreqsMHz))
			batch := make([]float64, len(rows))
			for _, b := range benchsuite.All() {
				v := bundleFeatures(t, b)
				for i, f := range spec.CoreFreqsMHz {
					rows[i] = featuresRow(v, f)
				}
				for which, fr := range forests {
					fr.flat.PredictInto(batch, rows)
					for i := 0; i < len(rows); i += freqStep {
						f := spec.CoreFreqsMHz[i]
						got := fr.flat.Predict(rows[i])
						want := fr.ref.predict(rows[i])
						if got != want || batch[i] != want {
							t.Fatalf("%s/%s@%dMHz %s model: flat %v, batch %v != reference %v",
								name, b.Name, f, which, got, batch[i], want)
						}
					}
				}
			}
		})
	}
}

// ml.Forest.PredictInto takes its fast range walk only when every
// column of a batch is monotone down the rows, with no NaN. A
// Predictor's rows over the ascending clock table are such a batch:
// the mix fractions are constant, f rises, and 1/f and every mix/f
// fall. This pins that property for every builtin device and suite
// kernel, the zero vector and huge finite counts, so a change to
// featuresRowInto that broke it cannot silently send Advise back to the
// row-by-row walk.
func TestPredictorRowsMonotone(t *testing.T) {
	vectors := map[string]features.Vector{
		"zero":        {},
		"huge":        {FloatAdd: math.MaxFloat64, GlAccess: 1},
		"huge-sum":    {IntAdd: math.MaxFloat64, FloatMul: math.MaxFloat64, SF: 3},
		"huge-single": {LocAccess: 1e300},
	}
	for _, b := range benchsuite.All() {
		vectors[b.Name] = bundleFeatures(t, b)
	}
	for name, spec := range hw.BuiltinSpecs() {
		p := (&Models{Spec: spec}).predictor()
		if len(p.rows) < 2 {
			t.Fatalf("%s: clock table of %d entries", name, len(p.rows))
		}
		for vname, v := range vectors {
			p.fillRows(v)
			for j := 0; j < rowLen; j++ {
				up, down := true, true
				for i, r := range p.rows {
					if math.IsNaN(r[j]) {
						t.Fatalf("%s/%s: column %d is NaN at %d MHz", name, vname, j, spec.CoreFreqsMHz[i])
					}
					if i > 0 {
						up = up && r[j] >= p.rows[i-1][j]
						down = down && r[j] <= p.rows[i-1][j]
					}
				}
				if !up && !down {
					t.Fatalf("%s/%s: column %d is not monotone over the clock table", name, vname, j)
				}
			}
		}
	}
}

func bundleFeatures(t testing.TB, b *benchsuite.Benchmark) features.Vector {
	t.Helper()
	v, err := features.Extract(b.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// Predictor.Curve reuses session scratch; it must agree bit-for-bit
// with the allocating PredictCurve it replaced.
func TestPredictorCurveMatchesPredictCurve(t *testing.T) {
	m := forestBundle(t, hw.V100())
	p, err := m.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"matmul", "black_scholes", "median"} {
		b, err := benchsuite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		v := bundleFeatures(t, b)
		want := m.PredictCurve(v)
		got := p.Curve(v)
		if len(got) != len(want) {
			t.Fatalf("%s: %d points, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s point %d: %+v != %+v", name, i, got[i], want[i])
			}
		}
	}
}

func TestAdviseMatchesSearchFrequency(t *testing.T) {
	m := forestBundle(t, hw.V100())
	p, err := m.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchsuite.ByName("lin_reg_coeff")
	if err != nil {
		t.Fatal(err)
	}
	v := bundleFeatures(t, b)
	for _, tgt := range metrics.StandardTargets {
		a, err := p.Advise(v, tgt)
		if err != nil {
			t.Fatalf("%v: %v", tgt, err)
		}
		want, err := m.SearchFrequency(v, tgt)
		if err != nil {
			t.Fatal(err)
		}
		if a.FreqMHz != want {
			t.Errorf("%v: Advise %d MHz, SearchFrequency %d MHz", tgt, a.FreqMHz, want)
		}
		if a.BaselineMHz != m.Spec.BaselineCoreMHz() {
			t.Errorf("%v: baseline %d", tgt, a.BaselineMHz)
		}
		if a.TimeNs <= 0 || a.EnergyNanoJ <= 0 {
			t.Errorf("%v: non-positive prediction %+v", tgt, a)
		}
		if math.IsNaN(a.ESPct) || math.IsNaN(a.PLPct) {
			t.Errorf("%v: NaN tradeoff %+v", tgt, a)
		}
	}
	if _, err := p.Advise(v, metrics.Target{Kind: metrics.KindES, X: -3}); err == nil {
		t.Error("invalid target accepted")
	}
}

// An untrained bundle must be refused with a descriptive error instead
// of advising 0 MHz from an unfit forest.
func TestNewPredictorRejectsUnfitBundle(t *testing.T) {
	m := &Models{Spec: hw.V100(), Algo: AlgoForest,
		Time: &ml.Forest{}, Energy: &ml.Forest{}, EDP: &ml.Forest{}, ED2P: &ml.Forest{}}
	if _, err := m.NewPredictor(); err == nil {
		t.Fatal("unfit bundle accepted")
	}
	if _, err := m.SearchFrequency(features.Vector{IntAdd: 1}, metrics.MinEnergy); err == nil {
		t.Fatal("SearchFrequency on unfit bundle succeeded")
	}
	if err := (&Models{}).Check(); err == nil {
		t.Fatal("bundle without spec accepted")
	}
}
