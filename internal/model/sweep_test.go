package model

import (
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/sweep"
)

// TestCollectTrainingMatchesGroundTruth proves the engine-backed
// training campaign subsamples the exact per-item measurements a direct
// ground-truth sweep yields: same frequencies, bit-identical ns/nJ.
func TestCollectTrainingMatchesGroundTruth(t *testing.T) {
	spec := hw.A100()
	b, err := benchsuite.ByName("matmul")
	if err != nil {
		t.Fatal(err)
	}
	const stride = 3
	ts, err := CollectTraining(spec, []*kernelir.Kernel{b.Kernel}, stride)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := sweep.GroundTruth(spec, b.Kernel, TrainingItems)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i := 0; i < len(gt.Points); i += stride {
		want = append(want, i)
	}
	if len(ts.Samples) != len(want) {
		t.Fatalf("got %d samples, want %d", len(ts.Samples), len(want))
	}
	for si, pi := range want {
		s, p := ts.Samples[si], gt.Points[pi]
		if s.FreqMHz != p.FreqMHz || s.TimeNs != p.TimeSec || s.EnergyNanoJ != p.EnergyJ {
			t.Errorf("sample %d: (%d MHz, %g ns, %g nJ) != ground-truth point %d (%d MHz, %g, %g)",
				si, s.FreqMHz, s.TimeNs, s.EnergyNanoJ, pi, p.FreqMHz, p.TimeSec, p.EnergyJ)
		}
	}
}
