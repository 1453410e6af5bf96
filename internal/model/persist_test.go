package model

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/ml"
)

func TestSaveLoadModelsRoundTrip(t *testing.T) {
	spec := hw.V100()
	ts := trainingSet(t, spec)
	for _, algo := range AllAlgos {
		m, err := Train(spec, ts, algo)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveModels(&buf, m); err != nil {
			t.Fatalf("%s: save: %v", algo, err)
		}
		loaded, err := LoadModels(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: load: %v", algo, err)
		}
		if loaded.Algo != algo || loaded.Spec.Name != spec.Name {
			t.Fatalf("%s: bundle identity changed: %s on %s", algo, loaded.Algo, loaded.Spec.Name)
		}
		// Frequency decisions are identical after the round trip.
		bench, err := benchsuite.ByName("black_scholes")
		if err != nil {
			t.Fatal(err)
		}
		v := features.MustExtract(bench.Kernel)
		for _, tgt := range []metrics.Target{metrics.MinEDP, metrics.ES(50), metrics.PL(25)} {
			want, err := m.SearchFrequency(v, tgt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.SearchFrequency(v, tgt)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s/%s: decision changed %d -> %d MHz", algo, tgt, want, got)
			}
		}
	}
}

// countingWriter counts the bytes written to it.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// A bundle that JSON cannot represent is refused before its first byte:
// SaveModels returns an error having written nothing, and Fingerprint
// returns an error.
func TestRefusedSaveWritesNothing(t *testing.T) {
	nan := &ml.Linear{Intercept: 1, Coef: []float64{1, math.NaN(), 3}}
	bundles := map[string]*Models{
		"linear NaN coefficient": {Spec: hw.V100(), Algo: AlgoLinear, Time: nan, Energy: nan, EDP: nan, ED2P: nan},
	}
	// A leaf's value is the mean of its targets, and the sum of two
	// MaxFloat64 targets overflows to an infinite leaf. The infinite
	// forest is the bundle's last model, behind megabytes that a writer
	// checking values as it went would already have written.
	for _, big := range []float64{math.MaxFloat64, -math.MaxFloat64} {
		f := &ml.Forest{Trees: 2, Seed: 1}
		if err := f.Fit([][]float64{{1}, {2}, {3}}, []float64{big, big, big}); err != nil {
			t.Fatal(err)
		}
		if v := f.Predict([]float64{1}); !math.IsInf(v, 0) {
			t.Fatalf("forest fitted to %g predicts %g, want an infinite leaf", big, v)
		}
		good := trainedBundle(t, hw.V100(), AlgoForest)
		bundles[fmt.Sprintf("forest %g leaf", f.Predict([]float64{1}))] = &Models{
			Spec: hw.V100(), Algo: AlgoForest, Time: good.Time, Energy: good.Energy, EDP: good.EDP, ED2P: f,
		}
	}
	for name, m := range bundles {
		var w countingWriter
		if err := SaveModels(&w, m); err == nil || w.n != 0 {
			t.Errorf("%s: SaveModels returned %v after %d bytes, want an error and no bytes", name, err, w.n)
		}
		if fp, err := m.Fingerprint(); err == nil {
			t.Errorf("%s: Fingerprint = %s, want an error", name, fp)
		}
	}
}

// A hand-edited bundle that sets fields no prediction reads — a leaf's
// feature, threshold and children, a split's value — loads, predicts as
// the bundle it was edited from, and saves back to that bundle's bytes,
// so it fingerprints as its canonical form.
func TestHandEditedBundleSavesCanonical(t *testing.T) {
	m := smallForestBundle(t)
	canonical := saveBundle(t, m)
	edited := corrupt(t, canonical, `"v": 0,`, `"v": 7.5,`)
	edited = corrupt(t, edited, `"f": 0,(\s*)"t": 0,`, `"f": 3,$1"t": -2.5,`)
	edited = corrupt(t, edited, `"leaf": true`,
		`"leaf": true, "lo": {"f": 1, "t": 2, "v": 3, "leaf": true}, "hi": {"f": 9, "t": 1, "v": 0, "leaf": false}`)
	loaded, err := LoadModels(bytes.NewReader(edited))
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBundle(t, loaded); !bytes.Equal(got, canonical) {
		t.Fatalf("the edited bundle saves as\n%s\nwant\n%s", got, canonical)
	}
	want, err := m.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := loaded.Fingerprint(); err != nil || got != want {
		t.Errorf("edited bundle fingerprints %s (%v), want %s", got, err, want)
	}
	for _, v := range reloadProbes {
		for _, f := range m.Spec.CoreFreqsMHz {
			row := featuresRow(v, f)
			if got, want := loaded.Time.Predict(row), m.Time.Predict(row); got != want {
				t.Fatalf("%d MHz: the edited bundle predicts %v, want %v", f, got, want)
			}
		}
	}
}

func TestLoadModelsRejectsGarbage(t *testing.T) {
	if _, err := LoadModels(strings.NewReader("nope")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadModels(strings.NewReader(`{"device":"h100","algo":"Linear"}`)); err == nil {
		t.Error("unknown device accepted")
	}
	if _, err := LoadModels(strings.NewReader(`{"device":"v100","algo":"Linear"}`)); err == nil {
		t.Error("bundle without models accepted")
	}
}

// TestLoadFile round-trips a bundle through a file and keeps the open
// error of a missing file inspectable.
func TestLoadFile(t *testing.T) {
	m, err := TrainDefault(hw.V100(), AlgoLinear, 16)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle.json")
	var buf bytes.Buffer
	if err := SaveModels(&buf, m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := loaded.Fingerprint(); err != nil || got != want {
		t.Errorf("loaded bundle fingerprint %q (%v), want %q", got, err, want)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: got %v, want a not-exist error", err)
	}
}
