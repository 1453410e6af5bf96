//go:build !race

package model

import (
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
	"synergy/internal/metrics"
)

// The whole-curve prediction — featuresRowInto per frequency plus the
// four batch model evaluations — is the serve daemon's hot path and
// must not allocate once the session scratch exists. (Skipped under
// -race, whose instrumentation allocates.)
func TestPredictorCurveZeroAlloc(t *testing.T) {
	m := forestBundle(t, hw.V100())
	p, err := m.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchsuite.ByName("matmul")
	if err != nil {
		t.Fatal(err)
	}
	v := bundleFeatures(t, b)
	p.Curve(v) // warm
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		c := p.Curve(v)
		sink += c[0].EnergyNanoJ
	})
	if allocs != 0 {
		t.Errorf("Predictor.Curve allocates %v per run, want 0", allocs)
	}
	_ = sink
}

// Advise predicts into the session's own buffers and selects through
// metrics.Select or metrics.Argmin, so a whole frequency search — the
// target's models over the table, clamp, selection, the chosen and
// baseline points and ES/PL — allocates nothing, for every target.
func TestAdviseZeroAlloc(t *testing.T) {
	m := forestBundle(t, hw.V100())
	p, err := m.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchsuite.ByName("black_scholes")
	if err != nil {
		t.Fatal(err)
	}
	v := bundleFeatures(t, b)
	for _, tgt := range metrics.StandardTargets {
		if _, err := p.Advise(v, tgt); err != nil { // warm
			t.Fatal(err)
		}
		var sink int
		allocs := testing.AllocsPerRun(200, func() {
			a, _ := p.Advise(v, tgt)
			sink += a.FreqMHz
		})
		if allocs != 0 {
			t.Errorf("Advise(%v) allocates %v per run, want 0", tgt, allocs)
		}
		_ = sink
	}
}
