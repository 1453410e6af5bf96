package model

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/metrics"
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
