package opt_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand/v2"
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

// TestOptimizeGolden pins what Optimize does to every suite kernel,
// every default micro-benchmark and the hostile families at small
// sizes, against testdata/optimize.golden: the body sizes, rounds and
// hoists of the Result, the optimized kernel's fingerprint, and the
// SHA-256 of the rewrite log rendered one "pass<TAB>pc<TAB>note" line
// per rewrite. Its last row hashes the same over a corpus of generated
// kernels (corpusRow). A change to any pass that moves one instruction
// or one word of a note moves a row here.
func TestOptimizeGolden(t *testing.T) {
	t.Parallel()
	tags, ks := goldenKernels(t)
	for _, k := range []*kernelir.Kernel{
		hostileWide(40), hostileNest(60), hostileChain(12), hostileMul(24),
		hostileEmpty(16), hostileEmptyNest(3),
	} {
		tags, ks = append(tags, "hostile"), append(ks, k)
	}
	var rows []string
	for i, k := range ks {
		ko, res := opt.Optimize(k)
		if res.Err != nil {
			t.Fatalf("%s: %v", k.Name, res.Err)
		}
		sum := sha256.Sum256([]byte(renderLog(res)))
		rows = append(rows, fmt.Sprintf("%s\t%s\tbefore=%d\tafter=%d\trounds=%d\thoisted=%d\tfp=%s\tlog=%s",
			tags[i], k.Name, res.Before, res.After, res.Rounds, res.Hoisted,
			kernelir.Fingerprint(ko), hex.EncodeToString(sum[:])))
	}
	rows = append(rows, corpusRow(t, 5000))
	checkGolden(t, filepath.Join("testdata", "optimize.golden"), strings.Join(rows, "\n")+"\n")
}

// renderLog renders a rewrite log one "pass<TAB>pc<TAB>note" line per
// rewrite.
func renderLog(res opt.Result) string {
	var log strings.Builder
	for _, rw := range res.Rewrites {
		log.WriteString(rw.Pass + "\t" + strconv.Itoa(rw.PC) + "\t" + rw.Note + "\n")
	}
	return log.String()
}

// corpusRow optimizes n generated kernels (opt.GenKernel, seeds 0 to n-1)
// and hashes each Result, its rewrite log and the optimized kernel's
// text into one SHA-256. The row also counts each pass's rewrites, the
// strength reductions and the empty repeats removed, to show that every
// pass fired on the corpus.
func corpusRow(t *testing.T, n int) string {
	h := sha256.New()
	counts := make(map[string]int)
	for seed := range n {
		k := opt.GenKernel(rand.New(rand.NewPCG(uint64(seed), 0)))
		if err := k.Validate(); err != nil {
			t.Fatalf("seed %d: generated an invalid kernel: %v", seed, err)
		}
		ko, res := opt.Optimize(k)
		if res.Err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, res.Err, k.Disassemble())
		}
		fmt.Fprintf(h, "before=%d after=%d rounds=%d hoisted=%d\n%s%s",
			res.Before, res.After, res.Rounds, res.Hoisted, renderLog(res), ko.Disassemble())
		for _, rw := range res.Rewrites {
			counts[rw.Pass]++
			switch {
			case strings.HasPrefix(rw.Note, "strength reduction"):
				counts["strength"]++
			case rw.Note == "empty repeat block (begin)":
				counts["empty"]++
			}
		}
	}
	return fmt.Sprintf("corpus\tkernels=%d\tconstfold=%d\talgebra=%d\tstrength=%d\tcse=%d\tcopyprop=%d\tlicm=%d\tdce=%d\tempty=%d\tsha=%x",
		n, counts["constfold"], counts["algebra"], counts["strength"], counts["cse"], counts["copyprop"],
		counts["licm"], counts["dce"], counts["empty"], h.Sum(nil))
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
