package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/model"
)

// BenchmarkServePredict is the daemon's in-process hot path: one advice
// resolution — target parse, feature-map decode, pooled predictor,
// the target's batch predictions, target search. The preds/s metric
// counts individual model evaluations as serve_predictions_total does
// (the Advice.Predictions of every advise); EXPERIMENTS.md ("Performance
// record") keeps reference rates.
func BenchmarkServePredict(b *testing.B) {
	s, reg := testServer(b)
	fm := featureMap(b, "black_scholes")
	req := Request{Target: "MIN_ENERGY", Features: fm}
	ctx := context.Background()
	if _, err := s.advise(ctx, &req); err != nil {
		b.Fatal(err)
	}
	before := reg.Snapshot().CounterValue("serve_predictions_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.advise(ctx, &req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	preds := reg.Snapshot().CounterValue("serve_predictions_total") - before
	b.ReportMetric(float64(preds)/b.Elapsed().Seconds(), "preds/s")
}

// BenchmarkServeCurve isolates the prediction kernel itself: the four
// flattened forests batch-evaluated over the full frequency table
// through reused session scratch (no target search, no JSON).
func BenchmarkServeCurve(b *testing.B) {
	m := testBundle(b)
	p, err := m.NewPredictor()
	if err != nil {
		b.Fatal(err)
	}
	fm := featureMap(b, "black_scholes")
	v, err := features.FromMap(fm)
	if err != nil {
		b.Fatal(err)
	}
	perCurve := 4 * len(m.Spec.CoreFreqsMHz)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Curve(v)
	}
	b.StopTimer()
	perSec := float64(perCurve) * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(perSec, "preds/s")
}

// BenchmarkServeAdvise measures the library advice path (no HTTP), the
// per-request cost a colocated caller pays.
func BenchmarkServeAdvise(b *testing.B) {
	m := testBundle(b)
	p, err := m.NewPredictor()
	if err != nil {
		b.Fatal(err)
	}
	fm := featureMap(b, "black_scholes")
	v, err := features.FromMap(fm)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Advise(v, metrics.MinEnergy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeHTTP is the end-to-end cost over real HTTP: JSON
// decode, advice, JSON encode, loopback transport.
func BenchmarkServeHTTP(b *testing.B) {
	s, _ := testServer(b)
	ts := httptest.NewServer(s)
	defer ts.Close()
	fm := featureMap(b, "black_scholes")
	body, err := json.Marshal(Request{Target: "MIN_ENERGY", Features: fm})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/advise", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var r Response
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkReload is one reload of the V100 stride-8 forest bundle, the
// one cmd/synergy-bench's advice daemon serves, from its saved bytes:
// LoadModels, then Reload's Check, Fingerprint and self-test.
func BenchmarkReload(b *testing.B) {
	m, err := model.TrainDefault(hw.V100(), model.AlgoForest, 8)
	if err != nil {
		b.Fatal(err)
	}
	var saved bytes.Buffer
	if err := model.SaveModels(&saved, m); err != nil {
		b.Fatal(err)
	}
	s, err := New(m, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cand, err := model.LoadModels(bytes.NewReader(saved.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Reload(cand); err != nil {
			b.Fatal(err)
		}
	}
}
