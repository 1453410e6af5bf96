package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"synergy/internal/benchsuite"
	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/microbench"
	"synergy/internal/model"
	"synergy/internal/resilience"
	"synergy/internal/sweep"
	"synergy/internal/telemetry"
)

var (
	bundleOnce sync.Once
	bundleM    *model.Models
	bundleErr  error
)

// testBundle trains one shared V100 forest bundle for the whole test
// binary (the training sweeps are memoized in the sweep engine).
func testBundle(t testing.TB) *model.Models {
	t.Helper()
	bundleOnce.Do(func() {
		ks, err := microbench.Kernels(microbench.DefaultSet())
		if err != nil {
			bundleErr = err
			return
		}
		ts, err := model.CollectTraining(hw.V100(), ks, 16)
		if err != nil {
			bundleErr = err
			return
		}
		bundleM, bundleErr = model.Train(hw.V100(), ts, model.AlgoForest)
	})
	if bundleErr != nil {
		t.Fatal(bundleErr)
	}
	return bundleM
}

func testServer(t testing.TB) (*Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	s, err := New(testBundle(t), reg)
	if err != nil {
		t.Fatal(err)
	}
	return s, reg
}

// featureMap extracts a benchmark's static counts in wire format.
func featureMap(t testing.TB, name string) map[string]float64 {
	t.Helper()
	b, err := benchsuite.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	v, err := features.Extract(b.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	return v.ToMap()
}

func postJSON(t testing.TB, h http.Handler, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	out, err := io.ReadAll(w.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return w, out
}

func TestAdviseFeaturesEndpoint(t *testing.T) {
	s, _ := testServer(t)
	fm := featureMap(t, "black_scholes")
	w, out := postJSON(t, s, "/v1/advise", Request{Target: "MIN_ENERGY", Features: fm})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, out)
	}
	var resp Response
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Device != s.Models().Spec.Name || resp.Algo != model.AlgoForest {
		t.Errorf("bundle identity %s/%s", resp.Device, resp.Algo)
	}
	inTable := false
	for _, f := range s.Models().Spec.CoreFreqsMHz {
		if f == resp.FreqMHz {
			inTable = true
		}
	}
	if !inTable {
		t.Errorf("advised %d MHz is not in the frequency table", resp.FreqMHz)
	}
	// The daemon must agree with the library path it fronts.
	v, err := features.FromMap(fm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Models().SearchFrequency(v, metrics.MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	if resp.FreqMHz != want {
		t.Errorf("advised %d MHz, library says %d MHz", resp.FreqMHz, want)
	}
	if resp.TimeNs <= 0 || resp.EnergyNanoJ <= 0 {
		t.Errorf("non-positive prediction: %+v", resp)
	}
}

func TestAdviseKIRGroundTruth(t *testing.T) {
	s, _ := testServer(t)
	b, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	w, out := postJSON(t, s, "/v1/advise", Request{
		Target:      "MIN_EDP",
		KIR:         b.Kernel.Disassemble(),
		Items:       b.CharItems,
		GroundTruth: true,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, out)
	}
	var resp Response
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ActualFreqMHz == 0 {
		t.Fatal("ground-truth optimum missing")
	}
	gt, err := sweep.GroundTruth(s.Models().Spec, b.Kernel, b.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := gt.Select(metrics.MinEDP)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ActualFreqMHz != sel.FreqMHz {
		t.Errorf("actual %d MHz, sweep says %d MHz", resp.ActualFreqMHz, sel.FreqMHz)
	}
}

func TestAdviseRejectsBadInput(t *testing.T) {
	s, _ := testServer(t)
	fm := featureMap(t, "vec_add")
	cases := []struct {
		name string
		req  Request
	}{
		{"bad target", Request{Target: "BOGUS", Features: fm}},
		{"no input", Request{Target: "MIN_ENERGY"}},
		{"both inputs", Request{Target: "MIN_ENERGY", Features: fm, KIR: "kernel k {\n}"}},
		{"unknown feature", Request{Target: "MIN_ENERGY", Features: map[string]float64{"k_bogus": 1}}},
		{"bad kir", Request{Target: "MIN_ENERGY", KIR: "not assembly"}},
		{"ground truth without kir", Request{Target: "MIN_ENERGY", Features: fm, GroundTruth: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, out := postJSON(t, s, "/v1/advise", c.req)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", w.Code, out)
			}
			var e map[string]string
			if err := json.Unmarshal(out, &e); err != nil || e["error"] == "" {
				t.Fatalf("error envelope missing: %s", out)
			}
		})
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/advise", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET advise: status %d, want 405", w.Code)
	}

	req = httptest.NewRequest(http.MethodPost, "/v1/advise", strings.NewReader("{"))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("truncated JSON: status %d, want 400", w.Code)
	}
}

// Two kernels a client can send that the daemon must refuse with a 400:
// one register named past kernelir.MaxRegs, which used to size a
// register file, and every per-register array after it, to 2*10^7
// entries, and a kernel that does no work, which the device model
// refuses, so its ground-truth sweep can only fail.
const (
	hugeRegKIR = "kernel huge(write f32[out]) {\n  i0 = gid\n  f20000000 = const.f 1\n  st.g.f out[i0], f20000000\n}\n"
	noWorkKIR  = "kernel nowork(write f32[out]) {\n  i0 = gid\n}\n"
)

// TestAdviseRejectsOversizedRegisterFile: a register past MaxRegs is a
// client error, refused before anything sizes a register file.
func TestAdviseRejectsOversizedRegisterFile(t *testing.T) {
	s, _ := testServer(t)
	w, out := postJSON(t, s, "/v1/advise", Request{Target: "MIN_ENERGY", KIR: hugeRegKIR})
	if w.Code != http.StatusBadRequest || !strings.Contains(string(out), "f20000000") {
		t.Fatalf("status %d: %s, want 400 naming the register", w.Code, out)
	}
}

// nestKIR is a kernel of nothing but nested repeats, as deep as
// MaxKernelBytes allows: about 20,000 levels. Disassemble indents two
// spaces per level, so before kernelir.MaxDepth bounded the nesting,
// fingerprinting such a kernel allocated gigabytes.
func nestKIR() string {
	const head, open, closing, tail = "kernel nest(write f32[out]) {\n", "repeat 2 {\n", "}\n", "}\n"
	n := (MaxKernelBytes - len(head) - len(tail)) / (len(open) + len(closing))
	return head + strings.Repeat(open, n) + strings.Repeat(closing, n) + tail
}

// TestAdviseRejectsDeepNest: a 256 KiB nest of repeats is a client
// error, refused at MaxDepth+1 levels before anything renders or
// optimizes the kernel.
func TestAdviseRejectsDeepNest(t *testing.T) {
	s, _ := testServer(t)
	req := Request{Target: "MIN_ENERGY", KIR: nestKIR()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, out := postJSON(t, s, "/v1/advise", req)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest || !strings.Contains(string(out), "nesting") {
		t.Fatalf("status %d: %s, want 400 naming the nesting bound", w.Code, out)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Errorf("a %d-byte nest allocated %d MB, want under 64 MB", len(req.KIR), alloc>>20)
	}
}

// TestNoWorkGroundTruthLeavesBreakerClosed: a ground-truth request for a
// kernel the device model refuses is the client's fault. It gets a 400
// before any sweep runs, so a run of them cannot open the sweep breaker
// and degrade service for everyone else.
func TestNoWorkGroundTruthLeavesBreakerClosed(t *testing.T) {
	s, reg := boundedServer(t, Config{})
	for i := 0; i < 3; i++ {
		w, out := postJSON(t, s, "/v1/advise", Request{Target: "MIN_EDP", KIR: noWorkKIR, Items: 1 << 20, GroundTruth: true})
		if w.Code != http.StatusBadRequest {
			t.Fatalf("no-work request %d: status %d: %s, want 400", i, w.Code, out)
		}
	}
	if st := s.SweepBreaker().Current(); st != resilience.Closed {
		t.Fatalf("breaker %s after client errors, want closed", st)
	}
	w, out := postJSON(t, s, "/v1/advise", Request{Target: "MIN_EDP", KIR: benchKIR(t, "vec_add"), Items: 1 << 20, GroundTruth: true})
	var resp Response
	if err := json.Unmarshal(out, &resp); err != nil || w.Code != http.StatusOK {
		t.Fatalf("valid request: status %d: %s (%v)", w.Code, out, err)
	}
	if resp.Degraded != "" || resp.ActualFreqMHz == 0 {
		t.Fatalf("valid request after client errors: degraded %q, actual %d MHz, want full service", resp.Degraded, resp.ActualFreqMHz)
	}
	if n := reg.Snapshot().CounterValue("serve_degraded_total", "reason", "sweep-error"); n != 0 {
		t.Errorf("serve_degraded_total{sweep-error} = %d, want 0", n)
	}
}

func TestBatchEndpoint(t *testing.T) {
	s, reg := testServer(t)
	fm := featureMap(t, "matmul")
	batch := []Request{
		{Target: "MIN_ENERGY", Features: fm},
		{Target: "BOGUS", Features: fm}, // bad item must not fail the batch
		{Target: "ES_25", Features: fm},
	}
	w, out := postJSON(t, s, "/v1/batch", batch)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, out)
	}
	var results []BatchResult
	if err := json.Unmarshal(out, &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	if results[0].Error != "" || results[0].Response == nil {
		t.Errorf("item 0 failed: %+v", results[0])
	}
	if results[1].Error == "" {
		t.Error("bad item 1 did not report an error")
	}
	if results[2].Error != "" || results[2].Response == nil {
		t.Errorf("item 2 failed: %+v", results[2])
	}
	if got := reg.Snapshot().CounterValue("serve_advises_total"); got != 2 {
		t.Errorf("serve_advises_total = %d, want 2", got)
	}

	if w, _ := postJSON(t, s, "/v1/batch", []Request{}); w.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", w.Code)
	}
	big := make([]Request, MaxBatch+1)
	if w, _ := postJSON(t, s, "/v1/batch", big); w.Code != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", w.Code)
	}
}

// TestAdviseRejectsHugeFeatureCounts is the regression test for finite
// but huge feature counts. They overflow the predicted curve — to +Inf
// times, or to ES/PL figures beyond float range — which must be a 400
// with a JSON error body rather than a 200 with an empty one, whichever
// models the target reads; inside a batch such an item must get its own
// error while the good items stay intact.
func TestAdviseRejectsHugeFeatureCounts(t *testing.T) {
	s, _ := testServer(t)
	var bad []Request
	for _, tgt := range metrics.StandardTargets {
		bad = append(bad, Request{Target: tgt.String(), Features: map[string]float64{"k_float_add": 1e308, "k_float_mul": 1e308}})
	}
	bad = append(bad, Request{Target: "MIN_EDP", Features: map[string]float64{"k_float_add": 1e308}})
	for _, req := range bad {
		w, out := postJSON(t, s, "/v1/advise", req)
		var body map[string]string
		if err := json.Unmarshal(out, &body); err != nil || body["error"] == "" || w.Code != http.StatusBadRequest {
			t.Errorf("%s %v: status %d body %q (%v), want 400 with a JSON error", req.Target, req.Features, w.Code, out, err)
		}
	}

	good := Request{Target: "ES_50", Features: featureMap(t, "black_scholes")}
	_, out := postJSON(t, s, "/v1/advise", good)
	var want Response
	if err := json.Unmarshal(out, &want); err != nil {
		t.Fatal(err)
	}
	w, out := postJSON(t, s, "/v1/batch", append([]Request{good}, bad...))
	if w.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", w.Code, out)
	}
	var results []BatchResult
	if err := json.Unmarshal(out, &results); err != nil {
		t.Fatalf("batch body %q: %v", out, err)
	}
	if len(results) != 1+len(bad) {
		t.Fatalf("%d results, want %d", len(results), 1+len(bad))
	}
	if results[0].Error != "" || results[0].Response == nil || *results[0].Response != want {
		t.Errorf("good item: %+v, want %+v", results[0], want)
	}
	for i, r := range results[1:] {
		if r.Error == "" || r.Response != nil {
			t.Errorf("huge item %d: %+v, want a per-item error", i+1, r)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, _ := testServer(t)
	fm := featureMap(t, "median")
	if w, out := postJSON(t, s, "/v1/advise", Request{Target: "MIN_ENERGY", Features: fm}); w.Code != http.StatusOK {
		t.Fatalf("advise: %d %s", w.Code, out)
	}

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
	var h map[string]string
	if err := json.NewDecoder(w.Result().Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["device"] == "" {
		t.Errorf("healthz body: %v", h)
	}

	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	body, _ := io.ReadAll(w.Result().Body)
	for _, want := range []string{"serve_advises_total", "serve_predictions_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics exposition missing %s:\n%s", want, body)
		}
	}
}

func TestUnfitBundleRefused(t *testing.T) {
	m := &model.Models{Spec: hw.V100(), Algo: model.AlgoForest}
	if _, err := New(m, nil); err == nil {
		t.Fatal("server accepted an unfit bundle")
	}
}

// TestConcurrentAdvise drives the daemon from many clients at once over
// real HTTP. CI re-runs it under -race: the pooled predictors, the
// feature cache and the telemetry counters all get exercised
// concurrently. Every response must equal the single-threaded answer.
func TestConcurrentAdvise(t *testing.T) {
	s, reg := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	benches := []string{"black_scholes", "matmul", "vec_add", "median"}
	targets := []string{"MIN_ENERGY", "MIN_EDP", "ES_25", "MAX_PERF"}
	type key struct{ bench, target string }
	want := map[key]int{}
	for _, b := range benches {
		fm := featureMap(t, b)
		v, err := features.FromMap(fm)
		if err != nil {
			t.Fatal(err)
		}
		for _, tgt := range targets {
			target, err := metrics.ParseTarget(tgt)
			if err != nil {
				t.Fatal(err)
			}
			f, err := s.Models().SearchFrequency(v, target)
			if err != nil {
				t.Fatal(err)
			}
			want[key{b, tgt}] = f
		}
	}

	const clients = 8
	const perClient = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				b := benches[(c+i)%len(benches)]
				tgt := targets[i%len(targets)]
				buf, _ := json.Marshal(Request{Target: tgt, Features: featureMapQuiet(b)})
				resp, err := http.Post(ts.URL+"/v1/advise", "application/json", bytes.NewReader(buf))
				if err != nil {
					errs <- err
					return
				}
				var r Response
				err = json.NewDecoder(resp.Body).Decode(&r)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				if r.FreqMHz != want[key{b, tgt}] {
					errs <- fmt.Errorf("%s/%s: got %d MHz, want %d MHz", b, tgt, r.FreqMHz, want[key{b, tgt}])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := reg.Snapshot().CounterValue("serve_advises_total"); got != clients*perClient {
		t.Errorf("serve_advises_total = %d, want %d", got, clients*perClient)
	}
}

// featureMapQuiet is featureMap without the testing.TB plumbing, for
// use inside client goroutines (benchsuite lookups cannot fail here:
// the names are vetted by the caller).
func featureMapQuiet(name string) map[string]float64 {
	b, err := benchsuite.ByName(name)
	if err != nil {
		panic(err)
	}
	v, err := features.Extract(b.Kernel)
	if err != nil {
		panic(err)
	}
	return v.ToMap()
}

// TestServeLoadProfile is a load-generation harness: N concurrent
// clients hammer /v1/advise over real HTTP and the test logs throughput
// and latency quantiles (-v). It asserts only sanity (all responses
// OK); cmd/synergy-bench is the end-to-end yardstick.
func TestServeLoadProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("load profile skipped in -short")
	}
	s, reg := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	const clients = 8
	const perClient = 100
	fm := featureMap(t, "black_scholes")
	body, err := json.Marshal(Request{Target: "MIN_ENERGY", Features: fm})
	if err != nil {
		t.Fatal(err)
	}

	lat := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat[c] = make([]time.Duration, 0, perClient)
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				resp, err := http.Post(ts.URL+"/v1/advise", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				lat[c] = append(lat[c], time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(p float64) time.Duration { return all[int(p*float64(len(all)-1))] }
	total := clients * perClient
	rps := float64(total) / wall.Seconds()
	preds := float64(reg.Snapshot().CounterValue("serve_predictions_total")) / wall.Seconds()
	t.Logf("%d requests, %d clients: %.0f req/s (%.0f model predictions/s), p50 %v, p99 %v",
		total, clients, rps, preds, q(0.50), q(0.99))
}

// TestPredictionCountPerTarget pins the model evaluations one advise
// makes on the V100's 196-clock table, for every standard target:
// ES_x/PL_x run Time and Energy over the table; MAX_PERF and MIN_ENERGY
// run one of them over it and the other at the chosen and baseline
// clocks; MIN_EDP and MIN_ED2P run their product model over it and Time
// and Energy at those clocks. The lower count applies when the chosen
// clock is the baseline, which the two literal feature maps reach (for
// MIN_ENERGY and MIN_EDP). Advice reports the count, and
// serve_predictions_total on /metrics grows by exactly that much.
func TestPredictionCountPerTarget(t *testing.T) {
	s, _ := testServer(t)
	if n := len(s.Models().Spec.CoreFreqsMHz); n != 196 {
		t.Fatalf("V100 clock table has %d entries, want 196", n)
	}
	want := map[metrics.TargetKind][2]int{ // {chosen is baseline, otherwise}
		metrics.KindES: {392, 392}, metrics.KindPL: {392, 392},
		metrics.KindMaxPerf: {197, 198}, metrics.KindMinEnergy: {197, 198},
		metrics.KindMinEDP: {198, 200}, metrics.KindMinED2P: {198, 200},
	}
	p, err := s.Models().NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	inputs := []map[string]float64{
		featureMap(t, "black_scholes"),
		featureMap(t, "matmul"),
		{"k_float_add": 3, "k_sf": 4},
		{"k_int_bw": 1, "k_int_mul": 1},
	}
	atBase := map[metrics.TargetKind]bool{}
	for _, fm := range inputs {
		v, err := features.FromMap(fm)
		if err != nil {
			t.Fatal(err)
		}
		for _, tgt := range metrics.StandardTargets {
			a, err := p.Advise(v, tgt)
			if err != nil {
				t.Fatalf("%v %v: %v", fm, tgt, err)
			}
			w := want[tgt.Kind][1]
			if a.FreqMHz == a.BaselineMHz {
				w = want[tgt.Kind][0]
				atBase[tgt.Kind] = true
			}
			if a.Predictions != w {
				t.Errorf("%v %v (%d MHz, baseline %d): Advice.Predictions = %d, want %d",
					fm, tgt, a.FreqMHz, a.BaselineMHz, a.Predictions, w)
			}
			before := scrapeCounter(t, s, "serve_predictions_total")
			if w, out := postJSON(t, s, "/v1/advise", Request{Target: tgt.String(), Features: fm}); w.Code != http.StatusOK {
				t.Fatalf("%v %v: status %d: %s", fm, tgt, w.Code, out)
			}
			if got := scrapeCounter(t, s, "serve_predictions_total") - before; got != int64(a.Predictions) {
				t.Errorf("%v %v: serve_predictions_total grew by %d, want %d", fm, tgt, got, a.Predictions)
			}
		}
	}
	if !atBase[metrics.KindMinEnergy] || !atBase[metrics.KindMinEDP] {
		t.Errorf("targets that chose the baseline clock: %v; want MIN_ENERGY and MIN_EDP among them", atBase)
	}
}

// scrapeCounter reads an unlabelled counter from the /metrics text
// exposition.
func scrapeCounter(t *testing.T, h http.Handler, name string) int64 {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}
