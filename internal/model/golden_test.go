package model

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
	"synergy/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// adviseRows renders one device's Advise table: every suite benchmark
// under every standard target, with the chosen frequency and the exact
// float64 bits of the predicted time, energy, ES and PL.
func adviseRows(t *testing.T, device string) string {
	t.Helper()
	spec, err := hw.SpecByName(device)
	if err != nil {
		t.Fatal(err)
	}
	p, err := forestBundle(t, spec).NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, b := range benchsuite.All() {
		v := bundleFeatures(t, b)
		for _, tgt := range metrics.StandardTargets {
			a, err := p.Advise(v, tgt)
			if err != nil {
				t.Fatalf("%s %s %v: %v", device, b.Name, tgt, err)
			}
			fmt.Fprintf(&sb, "%s\t%s\t%s\t%d\t%016x\t%016x\t%016x\t%016x\n",
				device, b.Name, tgt, a.FreqMHz,
				math.Float64bits(a.TimeNs), math.Float64bits(a.EnergyNanoJ),
				math.Float64bits(a.ESPct), math.Float64bits(a.PLPct))
		}
	}
	return sb.String()
}

// TestAdviseGolden pins Predictor.Advise bit for bit: across every
// builtin device, suite benchmark and standard target, the advised
// frequency, predicted time and energy, and ES/PL figures must
// reproduce testdata/advise.golden exactly. Under -race only the v100
// rows are recomputed and compared. Regenerate with -update only after
// an intentional model change.
func TestAdviseGolden(t *testing.T) {
	var sb strings.Builder
	for _, d := range goldenDevices() {
		sb.WriteString(adviseRows(t, d))
	}
	checkGolden(t, "advise.golden", sb.String())
}

// TestBundlesGolden pins training and serialization byte for byte: the
// fingerprint (truncated SHA-256 of the SaveModels bytes) of every
// builtin device's stride-16 forest bundle, and of the v100 bundle of
// every other algorithm, must reproduce testdata/bundles.golden.
// advise.golden sees only what a bundle predicts on the suite; this
// covers every split, threshold, leaf and coefficient, and every byte
// SaveModels writes. Under -race only the v100 rows are checked.
func TestBundlesGolden(t *testing.T) {
	var sb strings.Builder
	for _, d := range goldenDevices() {
		spec, err := hw.SpecByName(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range AllAlgos {
			if algo != AlgoForest && d != "v100" {
				continue
			}
			fp, err := trainedBundle(t, spec, algo).Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%s\t%s\t%s\n", d, algo, fp)
		}
	}
	checkGolden(t, "bundles.golden", sb.String())
}

// goldenDevices lists the devices a golden table recomputes: every
// builtin device, or only v100 under -race.
func goldenDevices() []string {
	if raceEnabled {
		return []string{"v100"}
	}
	return hw.BuiltinNames()
}

// checkGolden compares got, one tab-separated row per line with the
// device first, against testdata/name, which -update rewrites. Under
// -race only the golden's v100 rows are compared.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update && !raceEnabled {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	var want []string
	for _, line := range strings.Split(string(raw), "\n") {
		if dev, _, _ := strings.Cut(line, "\t"); !raceEnabled || dev == "v100" || line == "" {
			want = append(want, line)
		}
	}
	rows := strings.Split(got, "\n")
	if len(rows) != len(want) {
		t.Fatalf("%d rows, golden %s has %d", len(rows), golden, len(want))
	}
	bad := 0
	for i := range want {
		if rows[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("row %d:\n got  %s\n want %s", i, rows[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d rows drifted from %s", bad, len(want)-1, golden)
	}
}
