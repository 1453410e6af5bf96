package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smallConfig is a run of a workload shortened for tests: a 1 s window,
// stride-16 bundles, one set-up, and short warm-ups and replays.
func smallConfig(t *testing.T, workload string, seed uint64) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.window, cfg.trace, cfg.out = workload, seed, time.Second, true, t.TempDir()
	cfg.stride, cfg.setups, cfg.warmKernels, cfg.replay = 16, 1, 200, 20
	return cfg
}

// TestWorkloadsReportEveryMetric runs every workload briefly with
// tracing. Each must pass all its output checks, report every metric
// BENCHMARK.json lists with its unit, and write a trace whose layer spans
// cover nearly all request time.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	spec, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smallConfig(t, w.name, 1)
			out, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Errorf("%d of %d checked operations failed", out.failed, out.attempted)
			}
			for _, set := range []struct {
				want []benchMetric
				got  map[string]metric
			}{{spec.EndToEnd, out.e2e}, {spec.PerLayer, out.layers}} {
				for _, m := range set.want {
					if got, ok := set.got[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if len(set.got) != len(set.want) {
					t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(set.got), len(set.want))
				}
			}
			if u := out.layers["trace.unattributed_pct"].Value; u < 0 || u > 5 {
				t.Errorf("layer spans leave %.2f%% of request time unattributed, want at most 5%%", u)
			}
			data, err := os.ReadFile(filepath.Join(cfg.out, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct{ TraceEvents []chromeEvent }
			if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Errorf("trace has %d events, error %v", len(trace.TraceEvents), err)
			}
		})
	}
}

// TestInputsFollowTheSeed checks that the seed alone decides every
// generated input.
func TestInputsFollowTheSeed(t *testing.T) {
	gen := func(seed uint64) []byte {
		cfg := smallConfig(t, "", seed)
		features, err := genAdvise(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		kir, err := genAdvise(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		char, err := genCharacterize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal([]any{features, kir, char, genPlace(cfg)})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(gen(1), gen(1)) {
		t.Error("seed 1 generated different inputs on two calls")
	}
	if bytes.Equal(gen(1), gen(2)) {
		t.Error("seeds 1 and 2 generated the same inputs")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		// statistics.quantiles(xs, n=4) in Python 3.
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.1, 0.5, 7.25, 2.0, 9.5}, [3]float64{1.25, 3.1, 8.375}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	a := quartiles([]float64{100, 101, 99, 100, 100})
	for _, c := range []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{100, 100, 101, 99, 100}, "higher", "unchanged"},
		{[]float64{80, 81, 79, 80, 80}, "higher", "worse"},
		{[]float64{80, 81, 79, 80, 80}, "lower", "better"},
		{[]float64{60, 140, 80, 120, 100}, "lower", "unresolved"},
	} {
		if got := verdict(a, quartiles(c.b), c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v vs %v, %s) = %s, want %s", a, c.b, c.better, got, c.want)
		}
	}
}
