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
	forestBundleMu sync.Mutex
	forestBundles  = map[string]*Models{}
)

// forestBundle trains a forest bundle on the device with a coarse
// training stride, once per device per test binary (forest fitting is
// the expensive part; the sweeps themselves are memoized
// full-resolution in the sweep engine).
func forestBundle(t testing.TB, spec *hw.Spec) *Models {
	t.Helper()
	forestBundleMu.Lock()
	defer forestBundleMu.Unlock()
	if m, ok := forestBundles[spec.Name]; ok {
		return m
	}
	m, err := TrainDefault(spec, AlgoForest, 16)
	if err != nil {
		t.Fatal(err)
	}
	forestBundles[spec.Name] = m
	return m
}

// The flattened forest is the production predictor; the pointer trees it
// was built from stay around as the differential oracle. Across every
// builtin device, every suite benchmark and every supported frequency,
// all four target models must agree bit-for-bit.
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
			forests := map[string]*ml.Forest{
				"time": m.Time.(*ml.Forest), "energy": m.Energy.(*ml.Forest),
				"edp": m.EDP.(*ml.Forest), "ed2p": m.ED2P.(*ml.Forest),
			}
			for _, b := range benchsuite.All() {
				v := bundleFeatures(t, b)
				for i := 0; i < len(spec.CoreFreqsMHz); i += freqStep {
					f := spec.CoreFreqsMHz[i]
					row := featuresRow(v, f)
					for which, fr := range forests {
						got := fr.Predict(row)
						want := fr.PredictReference(row)
						if got != want {
							t.Fatalf("%s/%s@%dMHz %s model: flat %v != reference %v",
								name, b.Name, f, which, got, want)
						}
					}
				}
			}
		})
	}
}

func bundleFeatures(t *testing.T, b *benchsuite.Benchmark) features.Vector {
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
