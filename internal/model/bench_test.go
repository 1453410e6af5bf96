package model

import (
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
	"synergy/internal/metrics"
)

// BenchmarkAdvise is one in-process frequency search on the V100 per
// standard target, reporting the model evaluations it made (preds/op):
// ES_x/PL_x run Time and Energy over the clock table, every other target
// one model over the table plus the missing time/energy at the chosen
// and baseline clocks.
func BenchmarkAdvise(b *testing.B) {
	p, err := forestBundle(b, hw.V100()).NewPredictor()
	if err != nil {
		b.Fatal(err)
	}
	bm, err := benchsuite.ByName("black_scholes")
	if err != nil {
		b.Fatal(err)
	}
	v := bundleFeatures(b, bm)
	for _, tgt := range metrics.StandardTargets {
		b.Run(tgt.String(), func(b *testing.B) {
			var a Advice
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if a, err = p.Advise(v, tgt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(a.Predictions), "preds/op")
		})
	}
}
