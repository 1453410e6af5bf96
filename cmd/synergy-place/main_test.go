package main

import (
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/model"
)

// TestPlacePredicted runs the -predict path at -stride 16 over the
// whole suite. The ground-truth grids fan out over the sweep pool while
// the predictors are shared, so under -race this pins that no
// Predictor session is used concurrently.
func TestPlacePredicted(t *testing.T) {
	fleet, err := hw.FleetFromNames([]string{"h100", "xeon8480", "alveo"}, hw.Budget{PowerW: 330})
	if err != nil {
		t.Fatal(err)
	}
	preds, err := trainPredictors(fleet, 16, model.AlgoLinear)
	if err != nil {
		t.Fatal(err)
	}
	benches := benchsuite.All()
	results, err := place(fleet, benches, metrics.MinEnergy, preds, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Benchmark != benches[i].Name || r.Predicted == nil || r.Placement.Device == "" {
			t.Fatalf("result %d = %+v, want a ground-truth and a predicted placement for %s", i, r, benches[i].Name)
		}
	}
}
