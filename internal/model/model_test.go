package model

import (
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/microbench"
	"synergy/internal/sweep"
)

// trainingSet collects a (cached) training set on the V100 model.
func trainingSet(t *testing.T, spec *hw.Spec) *TrainingSet {
	t.Helper()
	ts, err := DefaultTrainingSet(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestCollectTrainingShape(t *testing.T) {
	spec := hw.V100()
	ts := trainingSet(t, spec)
	nFreq := (len(spec.CoreFreqsMHz) + 3) / 4
	nKern := len(microbench.DefaultSet())
	if got, want := len(ts.Samples), nFreq*nKern; got != want {
		t.Fatalf("training set has %d samples, want %d (%d kernels x %d freqs)", got, want, nKern, nFreq)
	}
	for _, s := range ts.Samples {
		if s.TimeNs <= 0 || s.EnergyNanoJ <= 0 {
			t.Fatalf("sample %s@%d has non-positive measurements", s.Kernel, s.FreqMHz)
		}
		if s.EDP() <= 0 || s.ED2P() <= 0 {
			t.Fatalf("sample %s@%d has non-positive products", s.Kernel, s.FreqMHz)
		}
	}
}

func TestTrainAllAlgorithms(t *testing.T) {
	spec := hw.V100()
	ts := trainingSet(t, spec)
	for _, algo := range AllAlgos {
		m, err := Train(spec, ts, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		// Predictions must be finite over the whole curve for a
		// benchmark-like feature vector.
		bm, err := benchsuite.ByName("matmul")
		if err != nil {
			t.Fatal(err)
		}
		curve := m.PredictCurve(features.MustExtract(bm.Kernel))
		if len(curve) != len(spec.CoreFreqsMHz) {
			t.Fatalf("%s: curve has %d points", algo, len(curve))
		}
		for _, p := range curve {
			if p.TimeNs != p.TimeNs || p.EnergyNanoJ != p.EnergyNanoJ {
				t.Fatalf("%s: NaN prediction at %d MHz", algo, p.FreqMHz)
			}
		}
	}
}

func TestTrainRejectsUnknownAlgorithm(t *testing.T) {
	spec := hw.V100()
	ts := trainingSet(t, spec)
	if _, err := Train(spec, ts, "GradientBoost"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSearchFrequencyMaxPerf(t *testing.T) {
	// The time model must learn that higher clocks are faster: MAX_PERF
	// predictions land in the top of the table.
	spec := hw.V100()
	ts := trainingSet(t, spec)
	m, err := Train(spec, ts, AlgoLinear)
	if err != nil {
		t.Fatal(err)
	}
	// For a strongly compute-bound kernel (t ∝ 1/f) the linear model
	// must push MAX_PERF to the top of the table.
	bm, err := benchsuite.ByName("lin_reg_coeff")
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.SearchFrequency(features.MustExtract(bm.Kernel), metrics.MaxPerf)
	if err != nil {
		t.Fatal(err)
	}
	if f < spec.MaxCoreMHz()-200 {
		t.Errorf("lin_reg_coeff: MAX_PERF predicted %d MHz, want near %d", f, spec.MaxCoreMHz())
	}
	// For flatter kernels the frequency is less determined, but the
	// achieved time must be near-optimal — the paper's error metric
	// compares objective values at the predicted frequency (§8.3).
	errs, err := EvaluateModels(m, suiteCases(t), []metrics.Target{metrics.MaxPerf})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range errs {
		if e.APE > 0.10 {
			t.Errorf("%s: MAX_PERF objective APE %.3f, want near-optimal time", e.Bench, e.APE)
		}
	}
}

func TestSearchFrequencyRejectsInvalidTarget(t *testing.T) {
	spec := hw.V100()
	ts := trainingSet(t, spec)
	m, err := Train(spec, ts, AlgoLinear)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SearchFrequency(features.Vector{}, metrics.Target{Kind: metrics.KindES, X: 0}); err == nil {
		t.Fatal("invalid target accepted")
	}
}

// TestForestPredictsEnergyOptimaAccurately is the headline quality bar:
// the Random Forest energy model must place MIN_ENERGY frequencies so
// that the achieved energy is within a few percent of the true optimum
// (Table 2 reports MAPE 0.066 for MIN_ENERGY with Random Forest).
func TestForestPredictsEnergyOptimaAccurately(t *testing.T) {
	spec := hw.V100()
	ts := trainingSet(t, spec)
	m, err := Train(spec, ts, AlgoForest)
	if err != nil {
		t.Fatal(err)
	}
	cases := suiteCases(t)
	errs, err := EvaluateModels(m, cases, []metrics.Target{metrics.MinEnergy})
	if err != nil {
		t.Fatal(err)
	}
	worst, sum := 0.0, 0.0
	for _, e := range errs {
		sum += e.APE
		if e.APE > worst {
			worst = e.APE
		}
	}
	mape := sum / float64(len(errs))
	if mape > 0.10 {
		t.Errorf("RandomForest MIN_ENERGY MAPE %.3f, want <= 0.10 (paper: 0.066)", mape)
	}
	if worst > 0.35 {
		t.Errorf("RandomForest MIN_ENERGY worst-case APE %.3f too high", worst)
	}
}

func suiteCases(t *testing.T) []BenchCase {
	t.Helper()
	var cases []BenchCase
	for _, b := range benchsuite.All() {
		cases = append(cases, BenchCase{Name: b.Name, Kernel: b.Kernel, Items: b.CharItems})
	}
	return cases
}

func TestBuildTable2Layout(t *testing.T) {
	spec := hw.V100()
	ts := trainingSet(t, spec)
	rows, raw, err := BuildTable2(spec, ts, suiteCases(t), metrics.StandardTargets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(metrics.StandardTargets) {
		t.Fatalf("%d rows, want %d", len(rows), len(metrics.StandardTargets))
	}
	for _, row := range rows {
		want := AlgosFor(row.Target)
		for _, algo := range want {
			if !row.Cells[algo].Computed {
				t.Errorf("%s: missing cell for %s", row.Target, algo)
			}
		}
		for algo := range row.Cells {
			found := false
			for _, w := range want {
				if w == algo {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: unexpected cell for %s (paper marks it '-')", row.Target, algo)
			}
		}
		if row.Best == "" {
			t.Errorf("%s: no best algorithm", row.Target)
		}
	}
	if len(raw) == 0 {
		t.Fatal("no raw Fig. 9 errors returned")
	}
}

func TestAlgosForFamilies(t *testing.T) {
	if got := AlgosFor(metrics.MaxPerf); len(got) != 3 || got[0] != AlgoLinear {
		t.Errorf("MAX_PERF algos = %v", got)
	}
	for _, tgt := range []metrics.Target{metrics.MinEnergy, metrics.MinEDP, metrics.MinED2P, metrics.ES(25)} {
		for _, a := range AlgosFor(tgt) {
			if a == AlgoLasso {
				t.Errorf("%s: Lasso should not be evaluated for energy-family targets", tgt)
			}
		}
	}
	for _, a := range AlgosFor(metrics.PL(50)) {
		if a == AlgoSVR {
			t.Errorf("PL_50: SVR should not be evaluated for time-family targets")
		}
	}
}

func TestGroundTruthSweepUnits(t *testing.T) {
	spec := hw.V100()
	bm, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	gt, err := sweep.GroundTruth(spec, bm.Kernel, bm.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	base := gt.BaselinePoint()
	// Per-item time for a streaming kernel is well under a microsecond
	// and above a hundredth of a nanosecond.
	if base.TimeSec < 0.01 || base.TimeSec > 1000 {
		t.Fatalf("per-item time %v ns out of plausible range", base.TimeSec)
	}
}

func TestDefaultAdvisor(t *testing.T) {
	spec := hw.V100()
	adv, err := DefaultAdvisor(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := benchsuite.ByName("median")
	if err != nil {
		t.Fatal(err)
	}
	f, err := adv.AdviseCoreFreq(bm.Kernel, 1<<20, metrics.ES(50))
	if err != nil {
		t.Fatal(err)
	}
	if !spec.SupportsCoreFreq(f) {
		t.Fatalf("advised frequency %d not supported", f)
	}
	// ES_50 for a memory-leaning kernel must scale down from default.
	if f >= spec.DefaultCoreMHz {
		t.Errorf("ES_50 for median advised %d MHz, expected below the %d default", f, spec.DefaultCoreMHz)
	}
}

// TestAdvisorOnMI100 exercises the per-device deployment on the AMD
// backend: only 16 DPM states, no default clock (baseline = max).
func TestAdvisorOnMI100(t *testing.T) {
	spec := hw.MI100()
	adv, err := DefaultAdvisor(spec, 1) // 16 states: full sweep
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"median", "matmul", "vec_add"} {
		bm, err := benchsuite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := adv.AdviseCoreFreq(bm.Kernel, int(bm.CharItems), metrics.ES(50))
		if err != nil {
			t.Fatal(err)
		}
		if !spec.SupportsCoreFreq(f) {
			t.Fatalf("%s: unsupported advice %d", name, f)
		}
		if f >= spec.MaxCoreMHz() {
			t.Errorf("%s: ES_50 advised the maximum frequency; expected down-scaling", name)
		}
		// Achieved energy at the advised frequency must beat baseline.
		gt, err := sweep.GroundTruth(spec, bm.Kernel, bm.CharItems)
		if err != nil {
			t.Fatal(err)
		}
		p, ok := gt.PointAt(f)
		if !ok {
			t.Fatal("advice not in sweep")
		}
		base := gt.BaselinePoint()
		if p.EnergyJ >= base.EnergyJ {
			t.Errorf("%s: advised %d MHz saves no energy on MI100", name, f)
		}
	}
}
