// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§2, §5, §8). Each benchmark regenerates the
// corresponding experiment end to end and reports its headline numbers
// through b.ReportMetric, so `go test -bench=.` reproduces the study and
// prints the quantities to compare against the paper (EXPERIMENTS.md
// records the side-by-side).
package synergy

import (
	"strings"
	"testing"

	"synergy/internal/apps"
	"synergy/internal/benchsuite"
	"synergy/internal/core"
	"synergy/internal/features"
	"synergy/internal/governor"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/metrics"
	"synergy/internal/model"
	"synergy/internal/power"
	"synergy/internal/report"
	"synergy/internal/sweep"
	"synergy/internal/sycl"
)

// BenchmarkFig1_FrequencyTables regenerates the device frequency
// availability of Fig. 1.
func BenchmarkFig1_FrequencyTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := report.BuildFig1()
		if len(f.Devices) != 3 {
			b.Fatal("expected 3 devices")
		}
	}
	f := report.BuildFig1()
	for _, d := range f.Devices {
		b.ReportMetric(float64(d.CoreConfigs), strings.ReplaceAll(d.Name, " ", "_")+"_configs")
	}
}

// BenchmarkFig2_KernelCharacterization regenerates the Fig. 2 contrast:
// lin_reg_coeff (compute-bound, little headroom) vs median filter
// (memory-bound, >20% savings) on the V100.
func BenchmarkFig2_KernelCharacterization(b *testing.B) {
	var chars []*report.Characterization
	for i := 0; i < b.N; i++ {
		var err error
		chars, err = report.BuildFig2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(chars[0].BestSavingPct, "linreg_saving_%")
	b.ReportMetric(chars[1].BestSavingPct, "median_saving_%")
}

// BenchmarkFig4_BlackScholesEDP regenerates the EDP/ED2P study of
// Fig. 4 and reports where the minima land.
func BenchmarkFig4_BlackScholesEDP(b *testing.B) {
	var f *report.Fig4
	for i := 0; i < b.N; i++ {
		var err error
		f, err = report.BuildFig4()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.MinEDPMHz), "min_edp_MHz")
	b.ReportMetric(float64(f.MinED2PMHz), "min_ed2p_MHz")
}

// BenchmarkFig5_EnergyMetrics regenerates the ES_x / PL_x selections of
// Fig. 5 for Black-Scholes.
func BenchmarkFig5_EnergyMetrics(b *testing.B) {
	var f *report.Fig5
	for i := 0; i < b.N; i++ {
		var err error
		f, err = report.BuildFig5()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range f.Rows {
		b.ReportMetric(r.SavingPct, r.Target.String()+"_saving_%")
	}
}

// BenchmarkTable1_FeatureExtraction runs the compiler pass over the
// whole 23-benchmark suite (Table 1).
func BenchmarkTable1_FeatureExtraction(b *testing.B) {
	suite := benchsuite.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bench := range suite {
			if _, err := features.Extract(bench.Kernel); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(suite)), "benchmarks")
}

// BenchmarkFig7_V100Characterization regenerates the four-benchmark V100
// characterisation of Fig. 7.
func BenchmarkFig7_V100Characterization(b *testing.B) {
	var chars []*report.Characterization
	for i := 0; i < b.N; i++ {
		var err error
		chars, err = report.BuildFig7()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range chars {
		b.ReportMetric(c.BestSavingPct, c.Benchmark+"_saving_%")
	}
}

// BenchmarkFig8_MI100Characterization regenerates the MI100
// characterisation of Fig. 8 (16 DPM states, default = best
// performance).
func BenchmarkFig8_MI100Characterization(b *testing.B) {
	var chars []*report.Characterization
	for i := 0; i < b.N; i++ {
		var err error
		chars, err = report.BuildFig8()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range chars {
		b.ReportMetric(c.BestSavingPct, c.Benchmark+"_saving_%")
	}
}

// evalStride subsamples the training sweep in the model benches: it
// keeps the harness runnable in minutes while preserving the algorithm
// ranking (use stride 1 for the full-resolution campaign).
const evalStride = 8

// BenchmarkFig9_PredictionAPE regenerates the per-benchmark frequency-
// prediction errors of Fig. 9 (all algorithms, all objectives).
func BenchmarkFig9_PredictionAPE(b *testing.B) {
	var m *report.ModelEvaluation
	for i := 0; i < b.N; i++ {
		var err error
		m, err = report.BuildModelEvaluation(hw.V100(), evalStride)
		if err != nil {
			b.Fatal(err)
		}
	}
	zero := 0
	for _, e := range m.Raw {
		if e.APE == 0 {
			zero++
		}
	}
	b.ReportMetric(float64(len(m.Raw)), "predictions")
	b.ReportMetric(float64(zero), "exact_predictions")
}

// BenchmarkTable2_ErrorAnalysis regenerates Table 2 (RMSE/MAPE per
// objective × algorithm and the best-algorithm column).
func BenchmarkTable2_ErrorAnalysis(b *testing.B) {
	var m *report.ModelEvaluation
	for i := 0; i < b.N; i++ {
		var err error
		m, err = report.BuildModelEvaluation(hw.V100(), evalStride)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range m.Rows {
		if c, ok := row.Cells[row.Best]; ok {
			b.ReportMetric(c.MAPE, row.Target.String()+"_best_MAPE")
		}
	}
}

// BenchmarkFig10_EnergyScaling regenerates the weak-scaling energy study
// of Fig. 10 (CloverLeaf + MiniWeather, baseline + every target, 4 to 16
// GPUs here; synergy-cluster runs the full 64-GPU campaign).
func BenchmarkFig10_EnergyScaling(b *testing.B) {
	cfg := report.DefaultFig10Config()
	cfg.NodeCounts = []int{1, 2, 4}
	cfg.Steps = 6
	cfg.TrainStride = evalStride
	cfg.FunctionalCap = 128
	var pts []report.Fig10Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = report.BuildFig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.GPUs == 16 && (p.Target == "ES_50" || p.Target == "PL_50") {
			b.ReportMetric(p.SavingPct, p.App+"_"+p.Target+"_saving_%")
		}
	}
}

// BenchmarkLimitations_ShortKernelProfiling quantifies the §4.4
// limitation: relative error of sampled kernel energy vs kernel length.
func BenchmarkLimitations_ShortKernelProfiling(b *testing.B) {
	spec := hw.V100()
	var shortErr, longErr float64
	for i := 0; i < b.N; i++ {
		dev := hw.NewDevice(spec)
		short, err := dev.ExecuteKernel(hw.Workload{Name: "short", Items: 1 << 12, FloatOps: 100, GlobalBytes: 8})
		if err != nil {
			b.Fatal(err)
		}
		long, err := dev.ExecuteKernel(hw.Workload{Name: "long", Items: 1 << 26, FloatOps: 10, GlobalBytes: 256})
		if err != nil {
			b.Fatal(err)
		}
		sampled := dev.SampledEnergyBetween(short.Start, short.End, 0.015)
		shortErr = relErr(sampled, short.EnergyJ)
		sampled = dev.SampledEnergyBetween(long.Start, long.End, 0.015)
		longErr = relErr(sampled, long.EnergyJ)
	}
	b.ReportMetric(100*shortErr, "short_kernel_err_%")
	b.ReportMetric(100*longErr, "long_kernel_err_%")
}

// BenchmarkLimitations_ClockSetOverhead quantifies the §4.4 observation
// that NVML frequency-setting overhead grows with the number of
// submitted kernels: total overhead for 100 kernels alternating between
// two frequencies vs pinning one.
func BenchmarkLimitations_ClockSetOverhead(b *testing.B) {
	spec := hw.V100()
	kern := func() *kernelir.Kernel {
		kb := kernelir.NewBuilder("tiny")
		in := kb.BufferF32("in", kernelir.Read)
		out := kb.BufferF32("out", kernelir.Write)
		gid := kb.GlobalID()
		kb.StoreF(out, gid, kb.LoadF(in, gid))
		return kb.MustBuild()
	}()
	data := kernelir.Args{F32: map[string][]float32{"in": make([]float32, 256), "out": make([]float32, 256)}}
	var overheadFrac float64
	for i := 0; i < b.N; i++ {
		dev := sycl.NewDevice(spec)
		pm, err := power.NewPrivilegedManager(dev.HW())
		if err != nil {
			b.Fatal(err)
		}
		q := core.NewQueue(dev, pm)
		fa := spec.CoreFreqsMHz[50]
		fb := spec.CoreFreqsMHz[150]
		for k := 0; k < 100; k++ {
			f := fa
			if k%2 == 1 {
				f = fb
			}
			ev, err := q.SubmitWithFreq(0, f, func(h *sycl.Handler) {
				h.ParallelFor(256, kern, data)
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := ev.Wait(); err != nil {
				b.Fatal(err)
			}
		}
		total := dev.HW().Now()
		overhead := float64(dev.HW().ClockSetCount()) * spec.ClockSetOverheadSec
		overheadFrac = overhead / total
	}
	b.ReportMetric(100*overheadFrac, "clockset_overhead_%")
}

// BenchmarkModelTraining measures the training-phase cost itself (the
// deployment step of §3.2): collecting the micro-benchmark sweep and
// fitting the four Random Forest models.
func BenchmarkModelTraining(b *testing.B) {
	spec := hw.V100()
	for i := 0; i < b.N; i++ {
		if _, err := trainForest(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func trainForest(spec *hw.Spec) (*model.Models, error) {
	return model.TrainDefault(spec, model.AlgoForest, evalStride)
}

// BenchmarkAdvisorInference measures one §6.2 prediction (feature
// extraction + four-model curve + frequency search) — the per-kernel
// compile-time cost of a target annotation.
func BenchmarkAdvisorInference(b *testing.B) {
	spec := hw.V100()
	m, err := trainForest(spec)
	if err != nil {
		b.Fatal(err)
	}
	adv := &model.Advisor{Models: m}
	bench, err := benchsuite.ByName("black_scholes")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adv.AdviseCoreFreq(bench.Kernel, 1<<24, metrics.ES(50)); err != nil {
			b.Fatal(err)
		}
	}
}

func relErr(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

// BenchmarkAblation_FineVsCoarseGrained runs the §2.2 design-choice
// ablation: the best single application-wide frequency (exhaustive
// search) against SYnergy's per-kernel plans (model-driven and oracle),
// all targeting MIN_EDP on mini-CloverLeaf.
func BenchmarkAblation_FineVsCoarseGrained(b *testing.B) {
	spec := hw.V100()
	adv, err := model.DefaultAdvisor(spec, evalStride)
	if err != nil {
		b.Fatal(err)
	}
	var a *report.Ablation
	for i := 0; i < b.N; i++ {
		a, err = report.BuildAblation(report.AblationConfig{
			Spec: spec, App: apps.NewCloverLeaf(), Advisor: adv,
			LocalNx: 16384, LocalNy: 16384, Steps: 6,
			StateRows: 8, FunctionalCap: 64, FreqStride: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(1-a.CoarseEDP()/a.BaselineEDP()), "coarse_EDP_gain_%")
	b.ReportMetric(100*(1-a.FineEDP()/a.BaselineEDP()), "fine_EDP_gain_%")
	b.ReportMetric(100*(1-a.FineOracleEDP()/a.BaselineEDP()), "fine_oracle_EDP_gain_%")
}

// BenchmarkBaseline_OnlineGovernor contrasts SYnergy's static per-kernel
// prediction with the classic dynamic alternative: an online
// hill-climbing DVFS governor. It reports the cumulative EDP overhead
// each approach pays over the first 40 launches of matmul relative to
// the oracle optimum (the governor pays an exploration cost; the static
// plan pays only its one-shot prediction error).
func BenchmarkBaseline_OnlineGovernor(b *testing.B) {
	spec := hw.V100()
	bench, err := benchsuite.ByName("matmul")
	if err != nil {
		b.Fatal(err)
	}
	gt, err := sweep.GroundTruth(spec, bench.Kernel, bench.CharItems)
	if err != nil {
		b.Fatal(err)
	}
	opt, err := gt.Select(metrics.MinEDP)
	if err != nil {
		b.Fatal(err)
	}
	m, err := trainForest(spec)
	if err != nil {
		b.Fatal(err)
	}
	adv := &model.Advisor{Models: m}
	staticFreq, err := adv.AdviseCoreFreq(bench.Kernel, int(bench.CharItems), metrics.MinEDP)
	if err != nil {
		b.Fatal(err)
	}
	staticPoint, _ := gt.PointAt(staticFreq)

	const launches = 40
	optObj := metrics.ObjectiveValue(metrics.MinEDP, opt)
	var govOverhead, staticOverhead float64
	for i := 0; i < b.N; i++ {
		g, err := governor.New(spec, metrics.MinEDP)
		if err != nil {
			b.Fatal(err)
		}
		cum := 0.0
		for l := 0; l < launches; l++ {
			f := g.Decide("matmul")
			p, ok := gt.PointAt(f)
			if !ok {
				b.Fatalf("governor chose unknown frequency %d", f)
			}
			cum += metrics.ObjectiveValue(metrics.MinEDP, p)
			if err := g.Observe("matmul", p.TimeSec, p.EnergyJ); err != nil {
				b.Fatal(err)
			}
		}
		govOverhead = 100 * (cum/(float64(launches)*optObj) - 1)
		staticObj := metrics.ObjectiveValue(metrics.MinEDP, staticPoint)
		staticOverhead = 100 * (staticObj/optObj - 1)
	}
	b.ReportMetric(govOverhead, "governor_overhead_%")
	b.ReportMetric(staticOverhead, "static_overhead_%")
}

// benchmarkSweepEngine drives one full-suite V100 characterisation
// through a fresh engine per iteration so every sweep is a cache miss.
func benchmarkSweepEngine(b *testing.B, newEngine func() *sweep.Engine) {
	spec := hw.V100()
	suite := benchsuite.All()
	b.ResetTimer()
	var evals int64
	for i := 0; i < b.N; i++ {
		eng := newEngine()
		err := eng.ForEach(len(suite), func(j int) error {
			_, err := eng.GroundTruth(spec, suite[j].Kernel, suite[j].CharItems)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		evals = eng.Evaluations()
	}
	b.ReportMetric(float64(evals), "sweeps")
}

// BenchmarkSweepSerial characterises the full suite on one worker: the
// historical serial path the engine replaced.
func BenchmarkSweepSerial(b *testing.B) {
	benchmarkSweepEngine(b, func() *sweep.Engine {
		return sweep.NewEngine(sweep.WithWorkers(1))
	})
}

// BenchmarkSweepPooled characterises the full suite on the default
// bounded worker pool (GOMAXPROCS workers).
func BenchmarkSweepPooled(b *testing.B) {
	benchmarkSweepEngine(b, func() *sweep.Engine { return sweep.NewEngine() })
}

// BenchmarkSweepMemoized re-requests an already-characterised suite:
// after a warm-up pass, every request is a cache hit.
func BenchmarkSweepMemoized(b *testing.B) {
	spec := hw.V100()
	suite := benchsuite.All()
	eng := sweep.NewEngine()
	if err := eng.Prefetch(spec, kernelsOf(suite), suite[0].CharItems); err != nil {
		b.Fatal(err)
	}
	// Warm the per-benchmark launch sizes too.
	for _, bm := range suite {
		if _, err := eng.GroundTruth(spec, bm.Kernel, bm.CharItems); err != nil {
			b.Fatal(err)
		}
	}
	warm := eng.Evaluations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bm := range suite {
			if _, err := eng.GroundTruth(spec, bm.Kernel, bm.CharItems); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if eng.Evaluations() != warm {
		b.Fatalf("memoized pass evaluated %d new sweeps", eng.Evaluations()-warm)
	}
}

func kernelsOf(suite []*benchsuite.Benchmark) []*kernelir.Kernel {
	out := make([]*kernelir.Kernel, len(suite))
	for i := range suite {
		out[i] = suite[i].Kernel
	}
	return out
}
