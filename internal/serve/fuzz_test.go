package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/metrics"
)

// FuzzAdviseHTTP drives arbitrary /v1/advise and /v1/batch bodies
// through the whole handler stack. The status must be 200 or 4xx, never
// a 5xx or a panic, and every advice a 200 carries must name a clock of
// the device's table, have finite ES/PL figures and bear the serving
// bundle's fingerprint as its one stamp.
func FuzzAdviseHTTP(f *testing.F) {
	s, _ := testServer(f)
	fm := featureMap(f, "black_scholes")
	bm, err := benchsuite.ByName("matmul")
	if err != nil {
		f.Fatal(err)
	}
	kir := bm.Kernel.Disassemble()
	seed := func(batch bool, v any) {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(batch, body)
	}
	for _, tgt := range metrics.StandardTargets {
		seed(false, Request{Target: tgt.String(), Features: fm})
	}
	seed(false, Request{Target: "ES_50", KIR: kir})
	seed(false, Request{Target: "MIN_EDP", KIR: kir, Items: 1 << 20, GroundTruth: true})
	seed(false, Request{Target: "PL_25", Features: map[string]float64{"k_float_add": 1e308, "k_float_mul": 1e308}})
	seed(true, []Request{
		{Target: "MIN_ENERGY", Features: fm},
		{Target: "BOGUS", Features: fm},
		{Target: "MAX_PERF", KIR: kir},
		{Target: "MIN_ED2P", Features: map[string]float64{"k_int_add": 1e308}},
	})
	f.Add(false, []byte(`{"target":"ES_0","features":{"k_sf":-1}}`))
	f.Add(true, []byte(`[{}]`))

	clocks := map[int]bool{}
	for _, c := range s.Models().Spec.CoreFreqsMHz {
		clocks[c] = true
	}
	fp := s.BundleFingerprint()
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/v1/advise"
		if batch {
			path = "/v1/batch"
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusOK && (w.Code < 400 || w.Code >= 500) {
			t.Fatalf("%s %q: status %d: %s", path, body, w.Code, w.Body)
		}
		if w.Code != http.StatusOK {
			return
		}
		var advice []*Response
		if batch {
			var results []BatchResult
			if err := json.Unmarshal(w.Body.Bytes(), &results); err != nil {
				t.Fatalf("%s %q: 200 with body %q: %v", path, body, w.Body, err)
			}
			for _, r := range results {
				if r.Response != nil {
					advice = append(advice, r.Response)
				}
			}
		} else {
			var r Response
			if err := json.Unmarshal(w.Body.Bytes(), &r); err != nil {
				t.Fatalf("%s %q: 200 with body %q: %v", path, body, w.Body, err)
			}
			advice = append(advice, &r)
		}
		for _, r := range advice {
			if !clocks[r.FreqMHz] {
				t.Errorf("%s %q: advised %d MHz, not in the %s clock table", path, body, r.FreqMHz, r.Device)
			}
			if math.IsInf(r.ESPct, 0) || math.IsNaN(r.ESPct) || math.IsInf(r.PLPct, 0) || math.IsNaN(r.PLPct) {
				t.Errorf("%s %q: ES %v%% PL %v%%, want finite", path, body, r.ESPct, r.PLPct)
			}
			if r.Bundle != fp {
				t.Errorf("%s %q: bundle stamp %q, want %q", path, body, r.Bundle, fp)
			}
		}
	})
}
