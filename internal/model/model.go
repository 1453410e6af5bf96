// Package model implements SYnergy's modelling methodology (§6): the
// training phase builds four single-target regressors — execution time,
// energy, EDP and ED2P — over (static feature vector, frequency) inputs
// gathered by sweeping micro-benchmarks across the device's frequency
// table; the prediction phase extracts the features of a new kernel,
// predicts the metrics the user-selected energy target reads at every
// supported frequency and searches those curves for the configuration
// that optimises the target (Predictor.Advise). ES_x and PL_x read time
// and energy, MAX_PERF time, MIN_ENERGY energy, and MIN_EDP/MIN_ED2P
// their own product model; PredictCurve still gives all four metrics.
package model

import (
	"fmt"
	"math"

	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/metrics"
	"synergy/internal/microbench"
	"synergy/internal/ml"
	"synergy/internal/sweep"
)

// Sample is one training observation: a kernel's static features, a
// frequency, and the measured per-item metrics (normalised per work-item
// so launches of different sizes are comparable).
type Sample struct {
	Kernel   string
	Features features.Vector
	FreqMHz  int
	// TimeNs and EnergyNanoJ are per-work-item time and energy.
	TimeNs, EnergyNanoJ float64
}

// EDP returns the per-item energy-delay product.
func (s Sample) EDP() float64 { return s.EnergyNanoJ * s.TimeNs }

// ED2P returns the per-item energy-delay-squared product.
func (s Sample) ED2P() float64 { return s.EnergyNanoJ * s.TimeNs * s.TimeNs }

// TrainingSet is the table T = (k⃗, f, e, t, edp, ed2p) of §6.1.
type TrainingSet struct {
	Device  string
	Samples []Sample
}

// TrainingItems is the launch size used when measuring micro-benchmarks.
const TrainingItems = 1 << 22

// CollectTraining sweeps every kernel over the device's frequency table
// (subsampled by freqStride >= 1) and records per-item time and energy.
// This is the measurement campaign of §6.1 step ② — on the simulator it
// queries the device model directly, through the shared sweep engine:
// the kernels' full-resolution sweeps are computed concurrently (and
// memoized for everyone else), then subsampled by the stride.
func CollectTraining(spec *hw.Spec, kernels []*kernelir.Kernel, freqStride int) (*TrainingSet, error) {
	if freqStride < 1 {
		freqStride = 1
	}
	if err := sweep.Prefetch(spec, kernels, TrainingItems); err != nil {
		return nil, err
	}
	ts := &TrainingSet{Device: spec.Name}
	for _, k := range kernels {
		v, err := features.Extract(k)
		if err != nil {
			return nil, err
		}
		gt, err := sweep.GroundTruth(spec, k, TrainingItems)
		if err != nil {
			return nil, err
		}
		// Sweep points are in ascending frequency-table order and carry
		// per-item ns/nJ, exactly the sample units of T.
		for i := 0; i < len(gt.Points); i += freqStride {
			p := gt.Points[i]
			ts.Samples = append(ts.Samples, Sample{
				Kernel:      k.Name,
				Features:    v,
				FreqMHz:     p.FreqMHz,
				TimeNs:      p.TimeSec,
				EnergyNanoJ: p.EnergyJ,
			})
		}
	}
	if len(ts.Samples) == 0 {
		return nil, fmt.Errorf("model: empty training set")
	}
	return ts, nil
}

// Algorithm names accepted by NewRegressor.
const (
	AlgoLinear = "Linear"
	AlgoLasso  = "Lasso"
	AlgoForest = "RandomForest"
	AlgoSVR    = "SVR_RBF"
)

// TimeAlgos and EnergyAlgos list which algorithms the paper trains for
// the performance model and for the energy/EDP/ED2P models (§8.3).
var (
	TimeAlgos   = []string{AlgoLinear, AlgoLasso, AlgoForest}
	EnergyAlgos = []string{AlgoLinear, AlgoForest, AlgoSVR}
)

// NewRegressor instantiates a fresh regressor by algorithm name.
func NewRegressor(algo string) (ml.Regressor, error) {
	switch algo {
	case AlgoLinear:
		return &ml.Linear{}, nil
	case AlgoLasso:
		return &ml.Lasso{Alpha: 0.001}, nil
	case AlgoForest:
		return &ml.Forest{Trees: 80, Seed: 7}, nil
	case AlgoSVR:
		return &ml.SVR{C: 100, Gamma: 0.5}, nil
	default:
		return nil, fmt.Errorf("model: unknown algorithm %q", algo)
	}
}

// kernelScale is the per-work-item instruction count used to normalise
// targets: the models learn per-instruction time/energy as a function of
// the instruction *mix* and the frequency, which puts every kernel on a
// comparable magnitude. Target selection (argmin, ES/PL intervals) is
// invariant to this per-kernel positive rescaling.
func kernelScale(v features.Vector) float64 {
	s := v.Total()
	if s < 1 {
		s = 1
	}
	return s
}

// rowLen is the model-input width: the ten Table-1 features as mix
// fractions, frequency in GHz, its reciprocal, and the per-fraction /f
// interaction terms.
const rowLen = 2*10 + 2

// featuresRow builds the model input: the ten Table-1 features as mix
// fractions, the core frequency in GHz, its reciprocal, and the
// per-fraction /f interaction terms. The interactions encode the
// roofline structure (compute time ~mix/f, memory time ~mix), which is
// what lets the linear model be the strongest performance predictor
// (Table 2) while the energy targets — nonlinear in f through V(f)² —
// favour the forest.
func featuresRow(v features.Vector, freqMHz int) []float64 {
	row := make([]float64, rowLen)
	featuresRowInto(row, v, freqMHz)
	return row
}

// featuresRowInto fills a rowLen-sized scratch row in place — the
// allocation-free form the prediction hot path uses (a stack array
// instead of Vector.Slice, which allocates).
func featuresRowInto(row []float64, v features.Vector, freqMHz int) {
	ks := [10]float64{
		v.IntAdd, v.IntMul, v.IntDiv, v.IntBw,
		v.FloatAdd, v.FloatMul, v.FloatDiv, v.SF,
		v.GlAccess, v.LocAccess,
	}
	scale := 0.0
	for _, k := range ks {
		scale += k
	}
	if scale < 1 {
		scale = 1
	}
	fGHz := float64(freqMHz) / 1000
	for i, k := range ks {
		row[i] = k / scale
	}
	row[len(ks)] = fGHz
	row[len(ks)+1] = 1 / fGHz
	for i, k := range ks {
		row[len(ks)+2+i] = k / scale / fGHz
	}
}

// Models bundles the four single-target models of §6.1 step ③.
type Models struct {
	Spec   *hw.Spec
	Algo   string
	Time   ml.Regressor
	Energy ml.Regressor
	EDP    ml.Regressor
	ED2P   ml.Regressor
}

// Train fits the four models with the given algorithm on the set.
func Train(spec *hw.Spec, ts *TrainingSet, algo string) (*Models, error) {
	x := make([][]float64, len(ts.Samples))
	yT := make([]float64, len(ts.Samples))
	yE := make([]float64, len(ts.Samples))
	yEDP := make([]float64, len(ts.Samples))
	yED2P := make([]float64, len(ts.Samples))
	for i, s := range ts.Samples {
		x[i] = featuresRow(s.Features, s.FreqMHz)
		sc := kernelScale(s.Features)
		yT[i] = s.TimeNs / sc
		yE[i] = s.EnergyNanoJ / sc
		yEDP[i] = s.EDP() / (sc * sc)
		// ED2P spans orders of magnitude across kernels even after
		// per-instruction normalisation (the t² factor), so it is
		// fitted in log space: relative errors become uniform and the
		// frequency argmin — invariant under the monotone transform —
		// is located far more reliably.
		yED2P[i] = math.Log(s.ED2P() / (sc * sc * sc))
	}
	m := &Models{Spec: spec, Algo: algo}
	for _, tgt := range []struct {
		name string
		y    []float64
		dst  *ml.Regressor
	}{
		{"time", yT, &m.Time}, {"energy", yE, &m.Energy}, {"EDP", yEDP, &m.EDP}, {"ED2P", yED2P, &m.ED2P},
	} {
		r, err := NewRegressor(algo)
		if err != nil {
			return nil, err
		}
		if err := r.Fit(x, tgt.y); err != nil {
			return nil, fmt.Errorf("model: fitting %s: %w", algo, err)
		}
		// Finite targets can still overflow a fit (a leaf's mean, a
		// least-squares solve); a bundle holding the NaN or ±Inf could
		// be neither saved nor fingerprinted.
		if err := ml.CheckSave(r); err != nil {
			return nil, fmt.Errorf("model: fitting %s: the %s model: %w", algo, tgt.name, err)
		}
		*tgt.dst = r
	}
	return m, nil
}

// PredictedPoint carries the four metric predictions at one frequency.
type PredictedPoint struct {
	FreqMHz                int
	TimeNs, EnergyNanoJ    float64
	EDPPred, ED2PPredicted float64
}

// Check verifies the bundle is able to serve predictions: the device
// spec is present and valid and all four models are in a fitted state
// and read no further than the rowLen-wide model row.
// A bundle that was never trained — or was loaded from a corrupt
// artifact — is refused with a descriptive error here instead of
// silently predicting garbage (an unfit forest, for instance, used to
// return a flat 0).
func (m *Models) Check() error {
	if m.Spec == nil {
		return fmt.Errorf("model: bundle has no device spec")
	}
	if err := m.Spec.Validate(); err != nil {
		return err
	}
	for _, part := range []struct {
		name string
		r    ml.Regressor
	}{
		{"time", m.Time}, {"energy", m.Energy}, {"EDP", m.EDP}, {"ED2P", m.ED2P},
	} {
		if part.r == nil {
			return fmt.Errorf("model: bundle for %s is missing the %s model", m.Spec.Name, part.name)
		}
		if err := ml.CheckFitted(part.r); err != nil {
			return fmt.Errorf("model: %s model for %s cannot predict: %w", part.name, m.Spec.Name, err)
		}
		if err := ml.CheckWidth(part.r, rowLen); err != nil {
			return fmt.Errorf("model: %s model for %s does not fit the model row: %w", part.name, m.Spec.Name, err)
		}
	}
	return nil
}

// PredictCurve evaluates the four models at every supported frequency
// for the kernel's feature vector (§6.2 steps ④–⑤).
func (m *Models) PredictCurve(v features.Vector) []PredictedPoint {
	c := m.predictor().Curve(v)
	out := make([]PredictedPoint, len(c))
	copy(out, c)
	return out
}

// SearchFrequency runs the frequency search of §6.2 step ⑥: it scans the
// predicted curves and applies the target definition. MIN_EDP and
// MIN_ED2P use their dedicated models; the remaining targets operate on
// the predicted time/energy curves through the metrics definitions.
func (m *Models) SearchFrequency(v features.Vector, target metrics.Target) (int, error) {
	p, err := m.NewPredictor()
	if err != nil {
		return 0, err
	}
	a, err := p.Advise(v, target)
	if err != nil {
		return 0, err
	}
	return a.FreqMHz, nil
}

// Advisor adapts Models to the core.FrequencyAdvisor interface used by
// target-annotated queue submissions. Feature extraction happens here —
// in the real system it is the compiler pass output compiled into the
// binary.
type Advisor struct {
	Models *Models
}

// AdviseCoreFreq implements core.FrequencyAdvisor.
func (a *Advisor) AdviseCoreFreq(k *kernelir.Kernel, items int, target metrics.Target) (int, error) {
	v, err := features.Extract(k)
	if err != nil {
		return 0, err
	}
	return a.Models.SearchFrequency(v, target)
}

// DefaultTrainingSet runs the §6.1 measurement campaign on the paper's
// micro-benchmark suite (microbench.DefaultSet), subsampling the
// frequency table by freqStride.
func DefaultTrainingSet(spec *hw.Spec, freqStride int) (*TrainingSet, error) {
	ks, err := microbench.Kernels(microbench.DefaultSet())
	if err != nil {
		return nil, err
	}
	return CollectTraining(spec, ks, freqStride)
}

// TrainDefault is the per-device installation step of §3.2 in one call:
// the micro-benchmark training set, then the four models fitted with
// algo.
func TrainDefault(spec *hw.Spec, algo string, freqStride int) (*Models, error) {
	ts, err := DefaultTrainingSet(spec, freqStride)
	if err != nil {
		return nil, err
	}
	return Train(spec, ts, algo)
}

// DefaultAdvisor trains the paper's per-device deployment in one call:
// the micro-benchmark training set and Random Forest — the Table-2
// winner for the energy-family targets — for all four models.
func DefaultAdvisor(spec *hw.Spec, freqStride int) (*Advisor, error) {
	m, err := TrainDefault(spec, AlgoForest, freqStride)
	if err != nil {
		return nil, err
	}
	return &Advisor{Models: m}, nil
}
