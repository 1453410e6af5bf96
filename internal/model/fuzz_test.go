package model

import (
	"bytes"
	"encoding/json"
	"regexp"
	"slices"
	"strings"
	"testing"

	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/ml"
)

// saveBundle returns the SaveModels bytes of m.
func saveBundle(t testing.TB, m *Models) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveModels(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corrupt rewrites the first match of pattern in a saved bundle, which
// lies in its time model, with repl ($1 expands to the first group).
func corrupt(t testing.TB, bundle []byte, pattern, repl string) []byte {
	t.Helper()
	re := regexp.MustCompile(pattern)
	loc := re.FindSubmatchIndex(bundle)
	if loc == nil {
		t.Fatalf("no %s in the bundle", pattern)
	}
	out := re.Expand(slices.Clip(bundle[:loc[0]]), []byte(repl), bundle, loc)
	return append(out, bundle[loc[1]:]...)
}

// splitOn4000 makes the root of the time model's first tree split on
// feature 4000 of the 22-wide model row.
const splitOn4000 = `"f": 4000`

// A bundle whose model reads outside the model row used to pass
// LoadModels, Check and NewPredictor and then panic on its first
// prediction. Check refuses it: one case per algorithm, each a saved
// bundle with one array of its time model resized.
func TestCheckRefusesModelsWiderThanTheRow(t *testing.T) {
	for _, c := range []struct {
		name, algo, pattern, repl, want string
	}{
		{"feature", AlgoForest, `"f": \d+`, splitOn4000, "splits on feature 4000 of 22"},
		{"coef", AlgoLinear, `"coef": \[`, `"coef": [0,`, "23 coefficients for 22 features"},
		{"coef", AlgoLasso, `"coef": \[`, `"coef": [0,`, "23 coefficients for 22 features"},
		{"mean", AlgoSVR, `("mean": \[)\s*[^,]+,`, `$1`, "scaler is not 22 wide"},
		{"support", AlgoSVR, `("support": \[\s*\[)\s*[^,]+,`, `$1`, "support vector 0 has 21 features"},
		{"beta", AlgoSVR, `("beta": \[)\s*[^,]+,`, `$1`, "weights for"},
	} {
		t.Run(c.algo+"/"+c.name, func(t *testing.T) {
			good := saveBundle(t, trainedBundle(t, hw.V100(), c.algo))
			_, err := LoadModels(bytes.NewReader(corrupt(t, good, c.pattern, c.repl)))
			if err == nil || !strings.Contains(err.Error(), "time model") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("LoadModels: got %v, want a time-model error containing %q", err, c.want)
			}
		})
	}
}

// smallForestBundle is a forest bundle small enough to mutate: one
// forest of two stumps, fitted to the v100 stride-16 time targets and
// standing in for all four models.
func smallForestBundle(t testing.TB) *Models {
	t.Helper()
	spec := hw.V100()
	ts, err := DefaultTrainingSet(spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	x := make([][]float64, len(ts.Samples))
	y := make([]float64, len(ts.Samples))
	for i, s := range ts.Samples {
		x[i] = featuresRow(s.Features, s.FreqMHz)
		y[i] = s.TimeNs / kernelScale(s.Features)
	}
	f := &ml.Forest{Trees: 2, MaxDepth: 1, Seed: 1}
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	return &Models{Spec: spec, Algo: AlgoForest, Time: f, Energy: f, EDP: f, ED2P: f}
}

// reloadProbes are the reload self-test's golden probes
// (internal/serve goldenProbes): a compute-bound, a memory-bound and a
// mixed kernel.
var reloadProbes = []features.Vector{
	{FloatAdd: 64, FloatMul: 48, IntAdd: 16, GlAccess: 4},
	{GlAccess: 96, IntAdd: 8, LocAccess: 16},
	{IntAdd: 24, IntMul: 12, FloatAdd: 24, FloatMul: 12, SF: 4, GlAccess: 12, LocAccess: 8},
}

// FuzzLoadModels feeds mutated bundle bytes to LoadModels. It must
// return an error, or a bundle whose predictor advises every standard
// target on the reload probes without panicking, every advice naming a
// clock of the device's table, which saves to the bytes the
// encoding/json reference writes for the input decoded and made
// canonical, and whose saved bytes load back to the same fingerprint.
// The seeds are compacted: the fuzzer minimizes every new input it
// finds byte by byte, which takes minutes on an indented bundle.
func FuzzLoadModels(f *testing.F) {
	seed := func(bundle []byte) {
		var buf bytes.Buffer
		if err := json.Compact(&buf, bundle); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	small := saveBundle(f, smallForestBundle(f))
	seed(small)
	seed(corrupt(f, small, `"f": \d+`, splitOn4000))
	seed(saveBundle(f, trainedBundle(f, hw.V100(), AlgoLinear)))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModels(bytes.NewReader(data))
		if err != nil {
			return
		}
		p, err := m.NewPredictor()
		if err != nil {
			t.Fatalf("loaded bundle fails its own Check: %v", err)
		}
		for _, v := range reloadProbes {
			for _, tgt := range metrics.StandardTargets {
				a, err := p.Advise(v, tgt)
				if err == nil && !slices.Contains(m.Spec.CoreFreqsMHz, a.FreqMHz) {
					t.Fatalf("%v advised %d MHz, not in the %s clock table", tgt, a.FreqMHz, m.Spec.Name)
				}
			}
		}
		saved := saveBundle(t, m)
		ref, err := refDecode(data)
		if err != nil {
			t.Fatalf("the reference cannot decode a bundle LoadModels accepted: %v", err)
		}
		if refBytes, err := refEncode(ref); err != nil || !bytes.Equal(saved, refBytes) {
			t.Fatalf("SaveModels wrote %d bytes, the reference %d (%v):\n%s\nwant\n%s", len(saved), len(refBytes), err, saved, refBytes)
		}
		want, err := m.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		again, err := LoadModels(bytes.NewReader(saved))
		if err != nil {
			t.Fatalf("re-saved bundle does not load: %v", err)
		}
		if got, err := again.Fingerprint(); err != nil || got != want {
			t.Fatalf("re-saved bundle fingerprints %s (%v), want %s", got, err, want)
		}
	})
}
