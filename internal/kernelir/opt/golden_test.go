package opt_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/opt"
	"synergy/internal/microbench"
)

var update = flag.Bool("update", false, "rewrite testdata/optimize.golden")

// goldenKernels returns every suite kernel and every kernel of the
// default micro-benchmark training set, tagged with where it came from.
func goldenKernels(t *testing.T) (tags []string, ks []*kernelir.Kernel) {
	t.Helper()
	for _, b := range benchsuite.All() {
		tags, ks = append(tags, "suite"), append(ks, b.Kernel)
	}
	micro, err := microbench.Kernels(microbench.DefaultSet())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range micro {
		tags, ks = append(tags, "micro"), append(ks, k)
	}
	return tags, ks
}

// TestOptimizeGolden pins what Optimize does to every suite kernel and
// every default micro-benchmark, against testdata/optimize.golden: the
// body sizes, rounds and hoists of the Result, the optimized kernel's
// fingerprint, and the SHA-256 of the rewrite log rendered one
// "pass<TAB>pc<TAB>note" line per rewrite. A change to any pass that
// moves one instruction or one word of a note moves a row here.
func TestOptimizeGolden(t *testing.T) {
	t.Parallel()
	tags, ks := goldenKernels(t)
	var rows []string
	for i, k := range ks {
		ko, res := opt.Optimize(k)
		if res.Err != nil {
			t.Fatalf("%s: %v", k.Name, res.Err)
		}
		var log strings.Builder
		for _, rw := range res.Rewrites {
			log.WriteString(rw.Pass + "\t" + strconv.Itoa(rw.PC) + "\t" + rw.Note + "\n")
		}
		sum := sha256.Sum256([]byte(log.String()))
		rows = append(rows, fmt.Sprintf("%s\t%s\tbefore=%d\tafter=%d\trounds=%d\thoisted=%d\tfp=%s\tlog=%s",
			tags[i], k.Name, res.Before, res.After, res.Rounds, res.Hoisted,
			kernelir.Fingerprint(ko), hex.EncodeToString(sum[:])))
	}
	checkGolden(t, filepath.Join("testdata", "optimize.golden"), strings.Join(rows, "\n")+"\n")
}

// checkGolden compares got with the golden file, rewriting it first
// under -update.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
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
