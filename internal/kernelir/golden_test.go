package kernelir_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/kernelir"
	"synergy/internal/microbench"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.golden")

// TestFingerprintsGolden pins kernelir.Fingerprint, and through it every
// fingerprint-keyed memo key and .kir rendering, to the values recorded
// in testdata/fingerprints.golden: each suite kernel as built and as
// assembled from its own text, then each micro-benchmark of the default
// training set. A change to the renderer that moves one byte of
// Disassemble's output moves a row here.
func TestFingerprintsGolden(t *testing.T) {
	t.Parallel()
	var rows []string
	for _, b := range benchsuite.All() {
		back, err := kernelir.Assemble(b.Kernel.Disassemble())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		rows = append(rows,
			"suite\t"+b.Name+"\tbuilt\t"+kernelir.Fingerprint(b.Kernel),
			"suite\t"+b.Name+"\tassembled\t"+kernelir.Fingerprint(back))
	}
	micro, err := microbench.Kernels(microbench.DefaultSet())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range micro {
		rows = append(rows, "micro\t"+k.Name+"\tbuilt\t"+kernelir.Fingerprint(k))
	}
	got := strings.Join(rows, "\n") + "\n"

	golden := filepath.Join("testdata", "fingerprints.golden")
	if *update {
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
	want := strings.Split(string(raw), "\n")
	have := strings.Split(got, "\n")
	if len(have) != len(want) {
		t.Fatalf("%d rows, golden %s has %d", len(have), golden, len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Errorf("row %d:\n got  %s\n want %s", i, have[i], want[i])
		}
	}
}
