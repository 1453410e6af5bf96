// Package benchsuite implements the 23 SYCL benchmark applications the
// paper evaluates (§8.1): each benchmark is a kernelir kernel plus a
// host-side instance builder (deterministic input data) and an output
// verifier against a straight Go reference. The suite spans the
// compute-/memory-bound spectrum, which is what gives the per-kernel
// energy characterisations of Figs. 2, 7 and 8 their different shapes.
package benchsuite

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"synergy/internal/kernelir"

	// Importing compile installs the closure-threaded executor as the
	// process-wide kernelir.Runner, so suite kernels run compiled.
	_ "synergy/internal/kernelir/compile"
)

// Benchmark is one suite entry.
type Benchmark struct {
	// Name is the suite identifier (e.g. "sobel3", "black_scholes").
	Name string
	// Kernel is the device program.
	Kernel *kernelir.Kernel
	// CharItems is the launch size used for energy characterisation
	// sweeps (large; never functionally interpreted in full).
	CharItems int64
	// NewInstance builds a verifiable instance with roughly n
	// work-items (benchmarks may round n to their natural shape).
	NewInstance func(n int) (*Instance, error)
}

// Instance is a runnable, verifiable configuration of a benchmark.
type Instance struct {
	// Items is the exact launch size.
	Items int
	// Args binds the kernel parameters.
	Args kernelir.Args
	// Verify checks the outputs after execution.
	Verify func() error
}

// Run executes the instance directly through the interpreter (handy for
// tests that do not need a queue) and verifies the result.
func (in *Instance) Run(k *kernelir.Kernel) error {
	if err := kernelir.Execute(k, in.Args, in.Items); err != nil {
		return err
	}
	return in.Verify()
}

// All returns the full 23-benchmark suite, in a stable order.
func All() []*Benchmark {
	bs := []*Benchmark{
		vecAdd(), scalarProd(), matMul(), sobel(3), sobel(5), sobel(7),
		median(), gaussianBlur(), linRegCoeff(), linRegError(), kmeans(),
		molDyn(), nbody(), blackScholes(), mandelbrot(), reduction(),
		mvt(), atax(), bicg(), gesummv(), syr2k(), correlation(), arith(),
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name })
	return bs
}

// ByName returns one benchmark from the suite.
func ByName(name string) (*Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("benchsuite: unknown benchmark %q", name)
}

// Kernels resolves command-line targets, each a benchmark name or the
// path of a .kir file, into kernels; no targets means the full suite.
func Kernels(targets []string) ([]*kernelir.Kernel, error) {
	if len(targets) == 0 {
		all := All()
		ks := make([]*kernelir.Kernel, len(all))
		for i, b := range all {
			ks[i] = b.Kernel
		}
		return ks, nil
	}
	ks := make([]*kernelir.Kernel, 0, len(targets))
	for _, arg := range targets {
		if strings.HasSuffix(arg, ".kir") {
			text, err := os.ReadFile(arg)
			if err != nil {
				return nil, err
			}
			k, err := kernelir.Assemble(string(text))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", arg, err)
			}
			ks = append(ks, k)
			continue
		}
		b, err := ByName(arg)
		if err != nil {
			return nil, err
		}
		ks = append(ks, b.Kernel)
	}
	return ks, nil
}

// Names lists the suite in order.
func Names() []string {
	bs := All()
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}

// --- deterministic input data -------------------------------------------

// prng is a tiny SplitMix64-based generator for reproducible inputs.
type prng struct{ s uint64 }

func newPrng(seed uint64) *prng { return &prng{s: seed} }

func (r *prng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// f32 returns a float32 uniform in [lo, hi).
func (r *prng) f32(lo, hi float64) float32 {
	u := float64(r.next()>>11) / float64(1<<53)
	return float32(lo + u*(hi-lo))
}

func (r *prng) fill(buf []float32, lo, hi float64) {
	for i := range buf {
		buf[i] = r.f32(lo, hi)
	}
}

// --- verification helpers ------------------------------------------------

// almostEq compares with a small relative+absolute tolerance; references
// mirror kernel arithmetic, so differences should be rounding-level only.
func almostEq(got, want float32) bool {
	d := float64(got) - float64(want)
	if d < 0 {
		d = -d
	}
	mag := float64(want)
	if mag < 0 {
		mag = -mag
	}
	return d <= 1e-4*mag+1e-5
}

func verifyF32(name string, got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("benchsuite: %s: output length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if !almostEq(got[i], want[i]) {
			return fmt.Errorf("benchsuite: %s: output[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
	return nil
}

func verifyI32(name string, got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("benchsuite: %s: output length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("benchsuite: %s: output[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
	return nil
}

func clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
