package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/microbench"
	"synergy/internal/model"
	"synergy/internal/telemetry"
)

var (
	altOnce sync.Once
	altM    *model.Models
	altErr  error
)

// altBundle trains a second V100 bundle on a coarser training stride,
// so its fingerprint provably differs from testBundle's while serving
// the same device.
func altBundle(t testing.TB) *model.Models {
	t.Helper()
	altOnce.Do(func() {
		ks, err := microbench.Kernels(microbench.DefaultSet())
		if err != nil {
			altErr = err
			return
		}
		ts, err := model.CollectTraining(hw.V100(), ks, 24)
		if err != nil {
			altErr = err
			return
		}
		altM, altErr = model.Train(hw.V100(), ts, model.AlgoForest)
	})
	if altErr != nil {
		t.Fatal(altErr)
	}
	return altM
}

// bundleJSON serializes a bundle in the SaveModels wire format.
func bundleJSON(t testing.TB, m *model.Models) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := model.SaveModels(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReloadSwapsBundle(t *testing.T) {
	s, reg := testServer(t)
	oldFP := s.BundleFingerprint()
	alt := altBundle(t)
	altFP, err := alt.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if altFP == oldFP {
		t.Fatal("alternate bundle fingerprints equal; the swap would be unobservable")
	}

	w, out := postJSON(t, s, "/v1/reload", ReloadRequest{Bundle: bundleJSON(t, alt)})
	if w.Code != http.StatusOK {
		t.Fatalf("reload: status %d (%s)", w.Code, out)
	}
	var r map[string]string
	if err := json.Unmarshal(out, &r); err != nil || r["bundle"] != altFP {
		t.Fatalf("reload response %s, want bundle %s", out, altFP)
	}
	if s.BundleFingerprint() != altFP {
		t.Fatalf("server fingerprint %s after reload, want %s", s.BundleFingerprint(), altFP)
	}

	// Advice is now answered — and stamped — by the new bundle.
	fm := featureMap(t, "vec_add")
	w2, out2 := postJSON(t, s, "/v1/advise", Request{Target: "MIN_ENERGY", Features: fm})
	if w2.Code != http.StatusOK {
		t.Fatalf("post-reload advise: status %d (%s)", w2.Code, out2)
	}
	var resp Response
	if err := json.Unmarshal(out2, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Bundle != altFP {
		t.Errorf("post-reload advise stamped %s, want %s", resp.Bundle, altFP)
	}
	if got := reg.Snapshot().CounterValue("serve_reloads_total", "result", "ok"); got != 1 {
		t.Errorf("serve_reloads_total{ok} = %d, want 1", got)
	}
}

func TestReloadFromPath(t *testing.T) {
	s, _ := testServer(t)
	alt := altBundle(t)
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := os.WriteFile(path, bundleJSON(t, alt), 0o600); err != nil {
		t.Fatal(err)
	}
	w, out := postJSON(t, s, "/v1/reload", ReloadRequest{Path: path})
	if w.Code != http.StatusOK {
		t.Fatalf("reload from path: status %d (%s)", w.Code, out)
	}
	altFP, err := alt.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if s.BundleFingerprint() != altFP {
		t.Errorf("fingerprint %s, want %s", s.BundleFingerprint(), altFP)
	}
}

// A bundle file whose forest splits on feature 4000 of the 22-wide model
// row used to load and pass Check, then panic in the reload self-test.
// synergy-serve reloads from its SIGHUP goroutine, which has no
// recover, so one bad file killed the daemon. ReloadFromPath refuses
// it, and the live bundle keeps serving under its stamp.
func TestReloadFromPathRefusesOutOfRowFeature(t *testing.T) {
	s, reg := testServer(t)
	live := s.bundle.Load()
	raw := bundleJSON(t, altBundle(t))
	loc := regexp.MustCompile(`"f": \d+`).FindIndex(raw)
	if loc == nil {
		t.Fatal("bundle has no split")
	}
	bad := append(append(slices.Clip(raw[:loc[0]]), `"f": 4000`...), raw[loc[1]:]...)
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := os.WriteFile(path, bad, 0o600); err != nil {
		t.Fatal(err)
	}
	err := s.ReloadFromPath(path)
	if err == nil || !strings.Contains(err.Error(), "feature 4000") {
		t.Fatalf("ReloadFromPath: %v, want an error naming feature 4000", err)
	}
	if s.bundle.Load() != live || s.BundleFingerprint() != live.fp {
		t.Fatalf("live bundle changed to %s", s.BundleFingerprint())
	}
	w, out := postJSON(t, s, "/v1/advise", Request{Target: "MIN_ENERGY", Features: featureMap(t, "vec_add")})
	var resp Response
	if err := json.Unmarshal(out, &resp); w.Code != http.StatusOK || err != nil || resp.Bundle != live.fp {
		t.Fatalf("advise after the refused reload: status %d, bundle %q, want %q (%s)", w.Code, resp.Bundle, live.fp, out)
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue("serve_reloads_total", "result", "ok"); got != 0 {
		t.Errorf("serve_reloads_total{ok} = %d, want 0", got)
	}
	if got := snap.CounterValue("serve_reloads_total", "result", "rejected"); got != 1 {
		t.Errorf("serve_reloads_total{rejected} = %d, want 1", got)
	}
}

func TestReloadRejections(t *testing.T) {
	s, reg := testServer(t)
	liveFP := s.BundleFingerprint()
	fm := featureMap(t, "vec_add")

	// Train nothing for MI100 — just persist the test bundle under a
	// different-device header by saving a bundle trained elsewhere.
	wrongDev, err := model.CollectTraining(hw.MI100(), mustKernels(t), 48)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := model.Train(hw.MI100(), wrongDev, model.AlgoForest)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		body any
		code int
	}{
		{"garbage bundle", ReloadRequest{Bundle: json.RawMessage(`{"device":"nope"}`)}, http.StatusUnprocessableEntity},
		{"wrong device", ReloadRequest{Bundle: bundleJSON(t, mi)}, http.StatusUnprocessableEntity},
		{"missing path", ReloadRequest{Path: filepath.Join(t.TempDir(), "nope.json")}, http.StatusUnprocessableEntity},
		{"neither input", ReloadRequest{}, http.StatusBadRequest},
		{"both inputs", ReloadRequest{Path: "x", Bundle: json.RawMessage(`{}`)}, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, out := postJSON(t, s, "/v1/reload", c.body)
			if w.Code != c.code {
				t.Fatalf("status %d, want %d (%s)", w.Code, c.code, out)
			}
		})
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/reload", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET reload: status %d, want 405", w.Code)
	}

	// Every rejection left the live bundle serving, untouched.
	if s.BundleFingerprint() != liveFP {
		t.Fatalf("live bundle changed to %s after rejected reloads", s.BundleFingerprint())
	}
	w2, out2 := postJSON(t, s, "/v1/advise", Request{Target: "MIN_ENERGY", Features: fm})
	if w2.Code != http.StatusOK {
		t.Fatalf("advise after rejected reloads: status %d (%s)", w2.Code, out2)
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue("serve_reloads_total", "result", "rejected"); got != 3 {
		t.Errorf("serve_reloads_total{rejected} = %d, want 3 (400s are not rejections)", got)
	}
	if got := snap.CounterValue("serve_reloads_total", "result", "ok"); got != 0 {
		t.Errorf("serve_reloads_total{ok} = %d, want 0", got)
	}
}

func mustKernels(t testing.TB) []*kernelir.Kernel {
	t.Helper()
	ks, err := microbench.Kernels(microbench.DefaultSet())
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

// TestSelfTestRejectsBrokenCandidate exercises the golden-prediction
// gate directly: a candidate that decodes and Checks but predicts
// garbage must not become the serving bundle.
func TestSelfTestRejectsBrokenCandidate(t *testing.T) {
	live := testBundle(t)
	// Same-device sanity: the alternate bundle passes.
	if err := selfTest(live, altBundle(t)); err != nil {
		t.Fatalf("healthy candidate rejected: %v", err)
	}
	// Cross-device: rejected before any prediction runs.
	wrongDev, err := model.CollectTraining(hw.MI100(), mustKernels(t), 48)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := model.Train(hw.MI100(), wrongDev, model.AlgoForest)
	if err != nil {
		t.Fatal(err)
	}
	if err := selfTest(live, mi); err == nil {
		t.Fatal("cross-device candidate passed the self-test")
	}
}

// TestReloadUnderLoad races advise traffic against repeated A<->B
// reloads. Every successful response must be stamped by exactly one of
// the two bundles (never a mix, never an unknown fingerprint), and
// after the final reload the daemon serves the final bundle. CI
// re-runs this under -race.
func TestReloadUnderLoad(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := testBundle(t)
	b := altBundle(t)
	s, err := New(a, reg)
	if err != nil {
		t.Fatal(err)
	}
	fpA := s.BundleFingerprint()
	fpB, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	fm := featureMap(t, "black_scholes")
	body, err := json.Marshal(Request{Target: "MIN_ENERGY", Features: fm})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 6
	const perClient = 40
	stop := make(chan struct{})
	var clientWG, reloadWG sync.WaitGroup
	errs := make(chan error, clients+1)

	for c := 0; c < clients; c++ {
		clientWG.Add(1)
		go func() {
			defer clientWG.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/v1/advise", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var r Response
				derr := json.NewDecoder(resp.Body).Decode(&r)
				resp.Body.Close()
				if derr != nil {
					errs <- derr
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- errStatus(resp.StatusCode)
					return
				}
				if r.Bundle != fpA && r.Bundle != fpB {
					errs <- errBundle(r.Bundle)
					return
				}
			}
		}()
	}
	// The reloader flips bundles as fast as the self-test allows.
	reloadWG.Add(1)
	go func() {
		defer reloadWG.Done()
		next := b
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Reload(next); err != nil {
				errs <- err
				return
			}
			if next == b {
				next = a
			} else {
				next = b
			}
		}
	}()

	clientWG.Wait()
	close(stop)
	reloadWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Post-drain: one final reload to a known bundle, then verify the
	// daemon answers from it.
	if err := s.Reload(b); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/advise", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var r Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if r.Bundle != fpB {
		t.Fatalf("post-drain advise stamped %s, want %s", r.Bundle, fpB)
	}
}

type errStatus int

func (e errStatus) Error() string { return "unexpected status " + http.StatusText(int(e)) }

type errBundle string

func (e errBundle) Error() string { return "response stamped by unknown bundle " + string(e) }
