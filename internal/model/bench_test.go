package model

import (
	"io"
	"sync"
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

// BenchmarkTrain fits the V100 forest bundle, four models of 80 trees,
// on the stride-8 training set: the fit synergy-serve and
// cmd/synergy-bench run at start-up.
func BenchmarkTrain(b *testing.B) {
	spec := hw.V100()
	ts, err := DefaultTrainingSet(spec, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(spec, ts, AlgoForest); err != nil {
			b.Fatal(err)
		}
	}
}

// v100Stride8 is the V100 stride-8 forest bundle, the one
// cmd/synergy-bench's advice daemon serves, trained once per test
// binary.
var v100Stride8 = sync.OnceValues(func() (*Models, error) {
	return TrainDefault(hw.V100(), AlgoForest, 8)
})

// BenchmarkFingerprint hashes the SaveModels bytes of the V100 stride-8
// forest bundle, which serve.New and every reload do once.
func BenchmarkFingerprint(b *testing.B) {
	m, err := v100Stride8()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Fingerprint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaveModels writes the same bundle, as synergy-train -save
// does, to io.Discard.
func BenchmarkSaveModels(b *testing.B) {
	m, err := v100Stride8()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SaveModels(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}
