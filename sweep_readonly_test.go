package synergy

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/metrics"
	"synergy/internal/microbench"
	"synergy/internal/model"
	"synergy/internal/placement"
	"synergy/internal/report"
	"synergy/internal/serve"
	"synergy/internal/sweep"
)

// TestSharedSweepsStayReadOnly pins the contract that GroundTruth hands
// every caller the memoized sweep itself: the report, placement,
// training and serve cross-check paths run through sweep.Shared(), and
// afterwards every sweep they requested must still equal, bit for bit,
// a fresh serial recomputation. A caller that wrote to a shared sweep
// would show up here as a difference.
func TestSharedSweepsStayReadOnly(t *testing.T) {
	shared := sweep.Shared()
	// Start empty so every key the callers request misses once and
	// reaches the hook.
	shared.Invalidate()
	var (
		mu   sync.Mutex
		keys = map[sweep.Key]bool{}
	)
	shared.SetHook(func(k sweep.Key) {
		mu.Lock()
		keys[k] = true
		mu.Unlock()
	})
	defer shared.SetHook(nil)
	requested := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(keys)
	}
	// phase runs one caller and requires it to have requested sweeps of
	// its own.
	phase := func(name string, run func() error) {
		t.Helper()
		before := requested()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if requested() == before {
			t.Fatalf("%s requested no new sweep through sweep.Shared()", name)
		}
	}

	suite := benchsuite.All()
	v100, mi100 := hw.V100(), hw.MI100()
	specs := map[string]*hw.Spec{v100.Name: v100, mi100.Name: mi100}
	kernels := map[string]*kernelir.Kernel{}
	for _, bm := range suite {
		kernels[kernelir.Fingerprint(bm.Kernel)] = bm.Kernel
	}

	for _, spec := range []*hw.Spec{v100, mi100} {
		phase("report.BuildCharacterization on "+spec.Name, func() error {
			for _, bm := range suite {
				if _, err := report.BuildCharacterization(spec, bm.Name); err != nil {
					return err
				}
			}
			return nil
		})
	}

	fleet, err := hw.FleetFromNames([]string{"h100", "xeon8480", "alveo"}, hw.Budget{PowerW: 330})
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fleet.Devices {
		specs[fd.Spec.Name] = fd.Spec
	}
	phase("placement.BuildGroundTruth", func() error {
		for _, bm := range suite {
			if _, err := placement.BuildGroundTruth(shared, fleet, bm.Kernel, bm.CharItems); err != nil {
				return err
			}
		}
		return nil
	})
	// CrossValidate requests the same keys, so it adds none: it runs on
	// the sweeps BuildGroundTruth memoized.
	for _, bm := range suite {
		if _, err := placement.CrossValidate(shared, fleet, bm.Kernel, bm.CharItems); err != nil {
			t.Fatalf("placement.CrossValidate %s: %v", bm.Name, err)
		}
	}

	training, err := microbench.Kernels(microbench.DefaultSet())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range training {
		kernels[kernelir.Fingerprint(k)] = k
	}
	var ts *model.TrainingSet
	phase("model.CollectTraining", func() (err error) {
		ts, err = model.CollectTraining(v100, training, 16)
		return err
	})

	m, err := model.Train(v100, ts, model.AlgoLinear)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	phase("/v1/advise with ground_truth", func() error {
		body, err := json.Marshal(serve.Request{
			Target: "MIN_EDP", KIR: suite[0].Kernel.Disassemble(), Items: 12345, GroundTruth: true,
		})
		if err != nil {
			return err
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(body)))
		var resp serve.Response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			return err
		}
		if w.Code != http.StatusOK || resp.ActualFreqMHz == 0 || resp.Degraded != "" {
			t.Fatalf("advise: status %d, response %s", w.Code, w.Body.Bytes())
		}
		return nil
	})

	evals := shared.Evaluations()
	fresh := sweep.NewEngine(sweep.WithWorkers(1))
	for key := range keys {
		spec, k := specs[key.Device], kernels[key.Kernel]
		if spec == nil || k == nil || sweep.KeyFor(spec, k, key.Items) != key {
			t.Fatalf("cannot resolve requested sweep %s", key)
		}
		got, err := shared.GroundTruth(spec, k, key.Items)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.GroundTruth(spec, k, key.Items)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Errorf("memoized sweep %s differs from a fresh recomputation", key)
		}
	}
	// Every comparison above read the memoized sweep, not a recomputed
	// one that would hide a write.
	if n := shared.Evaluations() - evals; n != 0 {
		t.Fatalf("%d of %d requested sweeps were recomputed during the comparison", n, len(keys))
	}
}

// sameBits reports whether two sweeps have the same baseline and the
// same points, float bits included.
func sameBits(a, b *metrics.Sweep) bool {
	if a.Baseline != b.Baseline || len(a.Points) != len(b.Points) {
		return false
	}
	for i, p := range a.Points {
		q := b.Points[i]
		if p.FreqMHz != q.FreqMHz ||
			math.Float64bits(p.TimeSec) != math.Float64bits(q.TimeSec) ||
			math.Float64bits(p.EnergyJ) != math.Float64bits(q.EnergyJ) {
			return false
		}
	}
	return true
}
