package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/ml"
	"synergy/internal/model"
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
	seed(false, Request{Target: "MIN_ENERGY", KIR: hugeRegKIR})
	seed(false, Request{Target: "MIN_EDP", KIR: noWorkKIR, Items: 1 << 20, GroundTruth: true})
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

// FuzzReload drives mutated bundles through /v1/reload, inline and as a
// file under the test's temporary directory. Every answer must be 2xx
// or 4xx, never a 5xx or a panic. A rejected candidate leaves the live
// bundle, its stamp and serve_reloads_total{result="ok"} as they were;
// an accepted one is stamped on the answer and then swapped back out,
// so every input meets the same live bundle. The seeds mirror
// FuzzLoadModels': a compacted two-stump forest bundle, the same split
// on feature 4000 of the 22-wide model row, and a Linear bundle.
func FuzzReload(f *testing.F) {
	s, reg := testServer(f)
	live := s.bundle.Load()
	x := make([][]float64, 8)
	y := make([]float64, len(x))
	for i := range x {
		x[i] = make([]float64, 22)
		x[i][0], y[i] = float64(i), 1+float64(i%3)
	}
	stumps := &ml.Forest{Trees: 2, MaxDepth: 1, Seed: 1}
	if err := stumps.Fit(x, y); err != nil {
		f.Fatal(err)
	}
	linear, err := model.TrainDefault(hw.V100(), model.AlgoLinear, 16)
	if err != nil {
		f.Fatal(err)
	}
	seed := func(bundle []byte) {
		var buf bytes.Buffer
		if err := json.Compact(&buf, bundle); err != nil {
			f.Fatal(err)
		}
		f.Add(false, buf.Bytes())
		f.Add(true, buf.Bytes())
	}
	small := bundleJSON(f, &model.Models{Spec: hw.V100(), Algo: model.AlgoForest, Time: stumps, Energy: stumps, EDP: stumps, ED2P: stumps})
	seed(small)
	seed(regexp.MustCompile(`"f": \d+`).ReplaceAll(small, []byte(`"f": 4000`)))
	seed(bundleJSON(f, linear))

	f.Fuzz(func(t *testing.T, path bool, bundle []byte) {
		body := append(append([]byte(`{"bundle":`), bundle...), '}')
		if path {
			file := filepath.Join(t.TempDir(), "bundle.json")
			if err := os.WriteFile(file, bundle, 0o600); err != nil {
				t.Fatal(err)
			}
			body, _ = json.Marshal(ReloadRequest{Path: file})
		}
		oks := reg.Snapshot().CounterValue("serve_reloads_total", "result", "ok")
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/reload", bytes.NewReader(body)))
		switch {
		case w.Code >= 200 && w.Code < 300:
			var r map[string]string
			if err := json.Unmarshal(w.Body.Bytes(), &r); err != nil || r["bundle"] != s.BundleFingerprint() {
				t.Fatalf("accepted reload answered %s (%v), live stamp %s", w.Body, err, s.BundleFingerprint())
			}
			s.bundle.Store(live)
		case w.Code >= 400 && w.Code < 500:
			if s.bundle.Load() != live || s.BundleFingerprint() != live.fp {
				t.Fatalf("rejected reload (%d %s) changed the live bundle", w.Code, w.Body)
			}
			if got := reg.Snapshot().CounterValue("serve_reloads_total", "result", "ok"); got != oks {
				t.Fatalf("rejected reload moved serve_reloads_total{ok} from %d to %d", oks, got)
			}
		default:
			t.Fatalf("reload answered %d: %s", w.Code, w.Body)
		}
	})
}
