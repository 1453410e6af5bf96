// Package features implements the SYnergy compiler pass of §6.1: a
// static analysis over the kernel IR that extracts the ten-dimensional
// feature vector of Table 1. Repeat blocks multiply the counts of their
// bodies by the (static) trip count, so the extraction is exact for the
// whole per-work-item instruction stream.
package features

import (
	"context"
	"fmt"

	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/opt"
)

// Vector is the static code feature vector k⃗ of Table 1. Every element
// counts instructions of one class per work-item.
type Vector struct {
	IntAdd    float64 // integer additions and subtractions
	IntMul    float64 // integer multiplications
	IntDiv    float64 // integer divisions
	IntBw     float64 // integer bitwise operations
	FloatAdd  float64 // floating point additions and subtractions
	FloatMul  float64 // floating point multiplications
	FloatDiv  float64 // floating point divisions
	SF        float64 // special functions
	GlAccess  float64 // global memory accesses
	LocAccess float64 // local memory accesses
}

// Names lists the feature names in canonical (Table 1) order.
var Names = []string{
	"k_int_add", "k_int_mul", "k_int_div", "k_int_bw",
	"k_float_add", "k_float_mul", "k_float_div", "k_sf",
	"k_gl_access", "k_loc_access",
}

// Slice returns the vector in canonical order.
func (v Vector) Slice() []float64 {
	return []float64{
		v.IntAdd, v.IntMul, v.IntDiv, v.IntBw,
		v.FloatAdd, v.FloatMul, v.FloatDiv, v.SF,
		v.GlAccess, v.LocAccess,
	}
}

// Add returns v + w element-wise.
func (v Vector) Add(w Vector) Vector {
	return Vector{
		IntAdd: v.IntAdd + w.IntAdd, IntMul: v.IntMul + w.IntMul,
		IntDiv: v.IntDiv + w.IntDiv, IntBw: v.IntBw + w.IntBw,
		FloatAdd: v.FloatAdd + w.FloatAdd, FloatMul: v.FloatMul + w.FloatMul,
		FloatDiv: v.FloatDiv + w.FloatDiv, SF: v.SF + w.SF,
		GlAccess: v.GlAccess + w.GlAccess, LocAccess: v.LocAccess + w.LocAccess,
	}
}

// Scale returns v scaled by s element-wise.
func (v Vector) Scale(s float64) Vector {
	return Vector{
		IntAdd: v.IntAdd * s, IntMul: v.IntMul * s,
		IntDiv: v.IntDiv * s, IntBw: v.IntBw * s,
		FloatAdd: v.FloatAdd * s, FloatMul: v.FloatMul * s,
		FloatDiv: v.FloatDiv * s, SF: v.SF * s,
		GlAccess: v.GlAccess * s, LocAccess: v.LocAccess * s,
	}
}

// Total returns the total counted instructions per work-item.
func (v Vector) Total() float64 {
	t := 0.0
	for _, x := range v.Slice() {
		t += x
	}
	return t
}

// String formats the vector compactly.
func (v Vector) String() string {
	s := ""
	for i, x := range v.Slice() {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%g", Names[i], x)
	}
	return s
}

// classify maps one opcode to its feature class increment.
func classify(op kernelir.Op) (field int, counted bool) {
	switch op {
	case kernelir.OpAddI, kernelir.OpSubI, kernelir.OpMinI, kernelir.OpMaxI,
		kernelir.OpCmpLTI, kernelir.OpCmpEQI, kernelir.OpSelI:
		return 0, true
	case kernelir.OpMulI:
		return 1, true
	case kernelir.OpDivI, kernelir.OpRemI:
		return 2, true
	case kernelir.OpAndI, kernelir.OpOrI, kernelir.OpXorI, kernelir.OpShlI, kernelir.OpShrI:
		return 3, true
	case kernelir.OpAddF, kernelir.OpSubF, kernelir.OpMinF, kernelir.OpMaxF,
		kernelir.OpAbsF, kernelir.OpNegF, kernelir.OpCmpLTF, kernelir.OpSelF:
		return 4, true
	case kernelir.OpMulF:
		return 5, true
	case kernelir.OpDivF:
		return 6, true
	case kernelir.OpSqrtF, kernelir.OpExpF, kernelir.OpLogF, kernelir.OpSinF,
		kernelir.OpCosF, kernelir.OpPowF, kernelir.OpErfF:
		return 7, true
	case kernelir.OpLoadGF, kernelir.OpStoreGF, kernelir.OpLoadGI, kernelir.OpStoreGI:
		return 8, true
	case kernelir.OpLoadLF, kernelir.OpStoreLF:
		return 9, true
	default:
		return 0, false
	}
}

// Extract runs the static pass over the kernel and returns its feature
// vector. Counts inside Repeat blocks are multiplied by the trip counts
// of every enclosing block.
//
// The kernel is first brought into optimizer normal form (opt.Cached),
// so the vector describes the instructions a device would actually
// execute rather than folded constants, duplicate subexpressions and
// dead code the optimizer removes. Extraction is the single choke point
// for the feature view of a kernel — the sweep ground truth, the
// roofline classifier, the energy model and the serve daemon all see
// the same post-optimization counts. If the optimizer fails safe, the
// original body is measured (never an error: unoptimized counts are a
// valid over-approximation).
//
// Results are memoized under the ORIGINAL kernel's content fingerprint
// (the same identity the sweep engine keys on), so on the repeat path —
// the serve daemon's hot path — Extract is a map lookup that skips the
// optimizer, Validate and BuildLoopTree entirely and performs no
// allocations. Concurrent misses share one extraction (see
// internal/memo); failed extractions are not memoized.
func Extract(k *kernelir.Kernel) (Vector, error) {
	return ExtractContext(context.Background(), k)
}

// ExtractContext is Extract with cancellation: a canceled context
// abandons a cache-miss extraction before the optimizer and the static
// pass run. Cache hits are served regardless of context state — they
// cost a map lookup, and returning memoized data is never wasted work.
// Failed and abandoned extractions are not memoized.
func ExtractContext(ctx context.Context, k *kernelir.Kernel) (Vector, error) {
	return cache.Get(ctx, kernelir.Fingerprint(k), func() (Vector, error) {
		if err := ctx.Err(); err != nil {
			return Vector{}, err
		}
		return extract(opt.Cached(k))
	})
}

// extract is the uncached static pass.
func extract(k *kernelir.Kernel) (Vector, error) {
	if err := k.Validate(); err != nil {
		return Vector{}, err
	}
	// Validate guarantees matched Repeat nesting, so the loop tree cannot
	// fail here. The tree's Walk supplies each instruction's per-item
	// execution count (the product of enclosing trip counts) — the same
	// normalization the interpreter and the static analyzer use.
	tree, err := kernelir.BuildLoopTree(k.Body)
	if err != nil {
		return Vector{}, err
	}
	counts := [10]float64{}
	tree.Walk(func(_ int, in kernelir.Instr, mult float64) {
		if f, ok := classify(in.Op); ok {
			counts[f] += mult
		}
	})
	return Vector{
		IntAdd: counts[0], IntMul: counts[1], IntDiv: counts[2], IntBw: counts[3],
		FloatAdd: counts[4], FloatMul: counts[5], FloatDiv: counts[6], SF: counts[7],
		GlAccess: counts[8], LocAccess: counts[9],
	}, nil
}

// MustExtract is Extract that panics on error (kernels are static data).
func MustExtract(k *kernelir.Kernel) Vector {
	v, err := Extract(k)
	if err != nil {
		panic(err)
	}
	return v
}

// Workload converts a feature vector into the hardware model's workload
// description for a launch of the given size. This is the bridge between
// the static compiler view and the device cost model: 4 bytes per global
// (and local) access, divisions and special functions kept as separate
// resource classes.
func Workload(name string, v Vector, items int64) hw.Workload {
	return hw.Workload{
		Name:        name,
		Items:       items,
		IntOps:      v.IntAdd + v.IntMul + v.IntBw,
		FloatOps:    v.FloatAdd + v.FloatMul,
		DivOps:      v.IntDiv + v.FloatDiv,
		SFOps:       v.SF,
		GlobalBytes: 4 * v.GlAccess,
		LocalBytes:  4 * v.LocAccess,
	}
}

// KernelWorkload extracts features and converts them in one step. The
// kernel's DRAM traffic factor (cache reuse, invisible to the static
// features) scales the ground-truth global traffic.
func KernelWorkload(k *kernelir.Kernel, items int64) (hw.Workload, error) {
	v, err := Extract(k)
	if err != nil {
		return hw.Workload{}, err
	}
	w := Workload(k.Name, v, items)
	if k.TrafficFactor > 0 {
		w.GlobalBytes *= k.TrafficFactor
	}
	return w, nil
}
