package placement_test

import (
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/metrics"
	"synergy/internal/model"
	"synergy/internal/placement"
	"synergy/internal/sweep"
)

// trainFleetPredictors fits a cheap Linear bundle per fleet device on a
// handful of suite kernels with a coarse frequency stride — enough to
// exercise the predicted grid path without the full paper training run.
func trainFleetPredictors(t testing.TB, f *hw.Fleet) []*model.Predictor {
	t.Helper()
	var kernels []*kernelir.Kernel
	for _, name := range []string{"vec_add", "matmul", "black_scholes", "nbody"} {
		bm, err := benchsuite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, bm.Kernel)
	}
	preds := make([]*model.Predictor, len(f.Devices))
	for i, fd := range f.Devices {
		ts, err := model.CollectTraining(fd.Spec, kernels, 8)
		if err != nil {
			t.Fatalf("%s: CollectTraining: %v", fd.Key, err)
		}
		m, err := model.Train(fd.Spec, ts, model.AlgoLinear)
		if err != nil {
			t.Fatalf("%s: Train: %v", fd.Key, err)
		}
		p, err := m.NewPredictor()
		if err != nil {
			t.Fatalf("%s: NewPredictor: %v", fd.Key, err)
		}
		preds[i] = p
	}
	return preds
}

// TestBuildPredictedGridShape checks the predicted grid carries one
// candidate per (device, supported frequency), in device-major
// frequency-ascending order, with positive times/energies and coherent
// power accounting, and that every target selects successfully.
func TestBuildPredictedGridShape(t *testing.T) {
	t.Parallel()
	f := canonicalFleet(t)
	preds := trainFleetPredictors(t, f)
	bm, err := benchsuite.ByName("sobel3")
	if err != nil {
		t.Fatal(err)
	}
	v, err := features.Extract(bm.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	g, err := placement.BuildPredicted(f, preds, v)
	if err != nil {
		t.Fatal(err)
	}
	wantN := 0
	for _, fd := range f.Devices {
		wantN += len(fd.Spec.CoreFreqsMHz)
	}
	if len(g.Candidates) != wantN {
		t.Fatalf("%d candidates, want %d", len(g.Candidates), wantN)
	}
	prevDev, prevFreq := -1, 0
	for _, c := range g.Candidates {
		if c.DeviceIdx < prevDev {
			t.Fatal("candidates not device-major")
		}
		if c.DeviceIdx == prevDev && c.FreqMHz <= prevFreq {
			t.Fatalf("frequencies not ascending on device %s", c.Device)
		}
		prevDev, prevFreq = c.DeviceIdx, c.FreqMHz
		if c.TimeSec <= 0 || c.EnergyJ <= 0 {
			t.Fatalf("non-positive prediction survived clamping: %+v", c)
		}
		if want := c.EnergyJ / c.TimeSec; c.PowerW != want {
			t.Fatalf("power %v != E/t %v", c.PowerW, want)
		}
	}
	for _, target := range metrics.StandardTargets {
		p, err := g.Select(target)
		if err != nil {
			t.Fatalf("%v: %v", target, err)
		}
		if !p.Feasible || p.FleetPowerW > 330*(1+1e-12) {
			t.Errorf("%v: predicted placement violates the budget: %+v", target, p.Candidate)
		}
	}
}

// TestBuildPredictedErrors covers the misuse paths: predictor count
// mismatch, nil predictor, and a predictor bound to the wrong device.
func TestBuildPredictedErrors(t *testing.T) {
	t.Parallel()
	f := canonicalFleet(t)
	preds := trainFleetPredictors(t, f)
	bm, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	v, err := features.Extract(bm.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := placement.BuildPredicted(nil, preds, v); err == nil {
		t.Error("nil fleet accepted")
	}
	if _, err := placement.BuildPredicted(f, preds[:2], v); err == nil {
		t.Error("predictor count mismatch accepted")
	}
	hole := []*model.Predictor{preds[0], nil, preds[2]}
	if _, err := placement.BuildPredicted(f, hole, v); err == nil {
		t.Error("nil predictor accepted")
	}
	swapped := []*model.Predictor{preds[1], preds[0], preds[2]}
	if _, err := placement.BuildPredicted(f, swapped, v); err == nil {
		t.Error("predictor bound to the wrong device accepted")
	}
	bad := &hw.Fleet{Name: "bad"}
	if _, err := placement.BuildPredicted(bad, nil, v); err == nil {
		t.Error("invalid fleet accepted")
	}
}

// TestBuildGroundTruthErrors covers the ground-truth misuse paths.
func TestBuildGroundTruthErrors(t *testing.T) {
	t.Parallel()
	f := canonicalFleet(t)
	bm, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := placement.BuildGroundTruth(nil, f, bm.Kernel, bm.CharItems); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := placement.BuildGroundTruth(sweep.Shared(), nil, bm.Kernel, bm.CharItems); err == nil {
		t.Error("nil fleet accepted")
	}
	if _, err := placement.BuildGroundTruth(sweep.Shared(), f, nil, bm.CharItems); err == nil {
		t.Error("nil kernel accepted")
	}
	bad := &hw.Fleet{Name: "bad"}
	if _, err := placement.BuildGroundTruth(sweep.Shared(), bad, bm.Kernel, bm.CharItems); err == nil {
		t.Error("invalid fleet accepted")
	}
	g, err := placement.BuildGroundTruth(sweep.Shared(), f, bm.Kernel, bm.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Select(metrics.ES(-5)); err == nil {
		t.Error("invalid target accepted")
	}
}

// TestDegenerateFleetMatchesAdvise is the predicted-grid analogue of
// TestDegenerateFleetMatchesSweepSelect: on a one-device fleet with no
// budget, BuildPredicted plus Select must return Predictor.Advise's
// frequency and bit-identical ES/PL figures for every suite benchmark
// and every time/energy target. MIN_EDP and MIN_ED2P are left out on
// purpose: Advise scores them with the dedicated EDP/ED2P product
// models, the grid with time × energy of the predicted curve, and the
// two pick different frequencies on most benchmarks (DESIGN.md §16).
func TestDegenerateFleetMatchesAdvise(t *testing.T) {
	t.Parallel()
	for _, device := range []string{"v100", "mi100", "xeon8480", "alveo"} {
		device := device
		t.Run(device, func(t *testing.T) {
			t.Parallel()
			f, err := hw.FleetFromNames([]string{device}, hw.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			preds := trainFleetPredictors(t, f)
			for _, bm := range benchsuite.All() {
				v, err := features.Extract(bm.Kernel)
				if err != nil {
					t.Fatal(err)
				}
				g, err := placement.BuildPredicted(f, preds, v)
				if err != nil {
					t.Fatalf("%s: %v", bm.Name, err)
				}
				for _, target := range metrics.StandardTargets {
					if target.Kind == metrics.KindMinEDP || target.Kind == metrics.KindMinED2P {
						continue
					}
					want, err := preds[0].Advise(v, target)
					if err != nil {
						t.Fatalf("%s %v: %v", bm.Name, target, err)
					}
					got, err := g.Select(target)
					if err != nil {
						t.Fatalf("%s %v: %v", bm.Name, target, err)
					}
					if got.FreqMHz != want.FreqMHz || got.ESPct != want.ESPct || got.PLPct != want.PLPct {
						t.Errorf("%s %v: grid (%d MHz, ES %v, PL %v) != Advise (%d MHz, ES %v, PL %v)",
							bm.Name, target, got.FreqMHz, got.ESPct, got.PLPct,
							want.FreqMHz, want.ESPct, want.PLPct)
					}
				}
			}
		})
	}
}
