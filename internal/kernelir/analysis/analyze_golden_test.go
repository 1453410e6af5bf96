package analysis_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/analysis"
	"synergy/internal/microbench"
)

var update = flag.Bool("update", false, "rewrite testdata/analyze.golden")

// TestAnalyzeGolden pins the full report, roofline included, of every
// suite kernel and every default micro-benchmark on a V100 against
// testdata/analyze.golden: one Render block per kernel, in order.
func TestAnalyzeGolden(t *testing.T) {
	t.Parallel()
	var ks []*kernelir.Kernel
	for _, b := range benchsuite.All() {
		ks = append(ks, b.Kernel)
	}
	micro, err := microbench.Kernels(microbench.DefaultSet())
	if err != nil {
		t.Fatal(err)
	}
	ks = append(ks, micro...)
	var got strings.Builder
	for _, k := range ks {
		got.WriteString(analysis.Analyze(k, analysis.Options{Spec: hw.V100()}).Render())
	}

	golden := filepath.Join("testdata", "analyze.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	want := strings.Split(string(raw), "\n")
	have := strings.Split(got.String(), "\n")
	if len(have) != len(want) {
		t.Fatalf("%d lines, golden %s has %d", len(have), golden, len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, have[i], want[i])
		}
	}
}
