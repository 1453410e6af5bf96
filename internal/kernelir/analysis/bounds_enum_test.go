package analysis

import (
	"math"
	"testing"

	"synergy/internal/kernelir"
)

// These tests audit the interval transfer functions against the
// interpreter's concrete semantics (interp.go: wrapping add/sub/mul,
// div/rem-by-zero = 0, shifts masked by &63) by enumeration: every
// abstract result must contain every concrete result of operand values
// drawn from the operand intervals.
//
// Finite bounds are sampled exactly, including extremes like
// MaxInt64-1 that exercise the overflow-widening paths. An infinite
// bound is the lattice's "unknown in that direction" and is probed at
// ±(2^31-1), the documented fiction margin (bounds.go): widened
// registers are assumed to hold index-scale values, and the transfer
// functions enforce the flip side by widening to ⊤ whenever an
// infinity mixes with finite bounds too large for that assumption
// (addFictionMag/mulFictionMag). What the lattice guarantees without
// any fiction — and what these tests pin hardest — is that arithmetic
// on all-finite bounds never manufactures a wrong bound: exact
// overflow widens to ⊤ instead of saturating.

// concreteInt mirrors runItem's int semantics for the audited opcodes.
func concreteInt(op kernelir.Op, x, y int64) int64 {
	switch op {
	case kernelir.OpAddI:
		return x + y
	case kernelir.OpSubI:
		return x - y
	case kernelir.OpMulI:
		return x * y
	case kernelir.OpDivI:
		if y == 0 {
			return 0
		}
		return x / y
	case kernelir.OpRemI:
		if y == 0 {
			return 0
		}
		return x % y
	case kernelir.OpMinI:
		return min(x, y)
	case kernelir.OpMaxI:
		return max(x, y)
	case kernelir.OpAndI:
		return x & y
	case kernelir.OpOrI:
		return x | y
	case kernelir.OpXorI:
		return x ^ y
	case kernelir.OpShrI:
		return x >> (uint64(y) & 63)
	default:
		panic("concreteInt: unhandled op")
	}
}

var auditedOps = []kernelir.Op{
	kernelir.OpAddI, kernelir.OpSubI, kernelir.OpMulI,
	kernelir.OpDivI, kernelir.OpRemI,
	kernelir.OpMinI, kernelir.OpMaxI,
	kernelir.OpAndI, kernelir.OpOrI, kernelir.OpXorI,
	kernelir.OpShrI,
}

// abstractInt runs the real transfer function (not a reimplementation)
// on two operand intervals.
func abstractInt(op kernelir.Op, a, b ival) ival {
	st := []ival{a, b, {}}
	transfer(st, kernelir.Instr{Op: op, Dst: 2, A: 0, B: 1})
	return st[2]
}

func (v ival) contains(x int64) bool {
	// A sentinel bound is unbounded in its direction, so any concrete
	// value (including MinInt64/MaxInt64 themselves) is inside it.
	above := v.lo == iNegInf || v.lo <= x
	below := v.hi == iInf || x <= v.hi
	return above && below
}

// samples picks concrete probe values from an interval: finite bounds
// exactly (with their neighbors), infinite bounds at the ±(2^31-1)
// fiction margin, plus the small values where sign behavior changes.
func samples(v ival) []int64 {
	const fiction = int64(1)<<31 - 1
	lo, hi := v.lo, v.hi
	if lo == iNegInf {
		lo = -fiction
	}
	if hi == iInf {
		hi = fiction
	}
	// An interval like [MaxInt64-1, +inf] clamps its infinite side below
	// the finite one; collapse to the finite bound.
	if lo > hi {
		if v.hi == iInf {
			hi = lo
		} else {
			lo = hi
		}
	}
	cand := []int64{lo, lo + 1, hi - 1, hi, -1, 0, 1, 2, 63, 64}
	out := cand[:0]
	for _, x := range cand {
		if x < lo || x > hi {
			continue
		}
		dup := false
		for _, y := range out {
			if x == y {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, x)
		}
	}
	return out
}

func intervalsFrom(bounds []int64) []ival {
	var ivs []ival
	for _, lo := range bounds {
		if lo == iInf {
			continue
		}
		for _, hi := range bounds {
			if hi == iNegInf || hi < lo {
				continue
			}
			ivs = append(ivs, ival{lo, hi})
		}
	}
	return ivs
}

func auditSoundness(t *testing.T, ivs []ival) {
	t.Helper()
	for _, op := range auditedOps {
		name := op.String()
		for _, a := range ivs {
			for _, b := range ivs {
				out := abstractInt(op, a, b)
				for _, x := range samples(a) {
					for _, y := range samples(b) {
						got := concreteInt(op, x, y)
						if !out.contains(got) {
							t.Fatalf("%s: [%s] op [%s]: concrete %d op %d = %d outside abstract [%s]",
								name, a, b, x, y, got, out)
						}
					}
				}
			}
		}
	}
}

// TestIvalTransferSoundSmall exhaustively checks every small interval
// pair: all [lo, hi] with bounds in [-4, 4], every concrete operand
// pair inside them. Small ranges catch sign-boundary mistakes (trunc
// division, remainder sign, bitwise on negatives) that sampling at
// extremes would miss.
func TestIvalTransferSoundSmall(t *testing.T) {
	var bounds []int64
	for v := int64(-4); v <= 4; v++ {
		bounds = append(bounds, v)
	}
	ivs := intervalsFrom(bounds)
	for _, op := range auditedOps {
		name := op.String()
		for _, a := range ivs {
			for _, b := range ivs {
				out := abstractInt(op, a, b)
				for x := a.lo; x <= a.hi; x++ {
					for y := b.lo; y <= b.hi; y++ {
						got := concreteInt(op, x, y)
						if !out.contains(got) {
							t.Fatalf("%s: [%s] op [%s]: concrete %d op %d = %d outside abstract [%s]",
								name, a, b, x, y, got, out)
						}
					}
				}
			}
		}
	}
}

// TestIvalTransferSoundExtremes drives the transfer functions with
// bounds at and near the representable extremes (MinInt64+1,
// MaxInt64-1, ±2^40) and with genuine ±inf sentinels. This is the
// regression net for the three audited unsoundness fixes:
//
//   - sub negated a -inf bound with plain `-`, wrapping it onto itself,
//     so v - [-inf, x] got hi = -inf instead of +inf;
//   - add/sub/mul saturated on finite overflow while the interpreter
//     wraps, so [MaxInt64-1, MaxInt64-1] + [2, 2] excluded the wrapped
//     negative result;
//   - constIval let a real MinInt64/MaxInt64 constant masquerade as an
//     infinity.
func TestIvalTransferSoundExtremes(t *testing.T) {
	bounds := []int64{
		iNegInf, math.MinInt64 + 1, math.MinInt64 + 2,
		-(int64(1) << 40), -4097, -64, -3, -1, 0, 1, 2, 63, 64, 4096,
		int64(1) << 40, math.MaxInt64 - 2, math.MaxInt64 - 1, iInf,
	}
	auditSoundness(t, intervalsFrom(bounds))
}

// TestSubNegInfUpperBound pins the sneg fix directly: subtracting an
// interval whose lower bound is -inf must yield an unbounded *upper*
// bound. Before the fix the -inf wrapped in place and the result
// claimed hi = -inf, wrongly proving "negative on every work-item".
func TestSubNegInfUpperBound(t *testing.T) {
	got := ival{5, 5}.sub(ival{iNegInf, 10})
	if got.hi != iInf {
		t.Fatalf("[5,5] - [-inf,10] = [%s], want hi = +inf", got)
	}
	if !got.contains(5 - 0) {
		t.Fatalf("[5,5] - [-inf,10] = [%s] excludes 5", got)
	}
}

// TestConstIvalSentinelGuard pins the constant-vs-sentinel collision:
// ConstI can legitimately materialize MinInt64 (int64 conversion of a
// large negative Imm), which must not be tracked as the -inf sentinel —
// negating it (0 - x) would stay "-inf" instead of becoming unbounded
// above.
func TestConstIvalSentinelGuard(t *testing.T) {
	if got := constIval(math.MinInt64); got != fullIval() {
		t.Fatalf("constIval(MinInt64) = [%s], want top", got)
	}
	if got := constIval(math.MaxInt64); got != fullIval() {
		t.Fatalf("constIval(MaxInt64) = [%s], want top", got)
	}
	if got := constIval(math.MinInt64 + 1); !got.isConst() {
		t.Fatalf("constIval(MinInt64+1) = [%s], want exact constant", got)
	}

	// End to end through transfer: const MinInt64, then 0 - it. The
	// concrete result wraps to MinInt64; the abstract one must contain
	// it.
	huge := -9.3e18 // int64(huge) lands on MinInt64, same as in the interpreter
	st := make([]ival, 3)
	transfer(st, kernelir.Instr{Op: kernelir.OpConstI, Dst: 0, Imm: huge})
	transfer(st, kernelir.Instr{Op: kernelir.OpConstI, Dst: 1, Imm: 0})
	transfer(st, kernelir.Instr{Op: kernelir.OpSubI, Dst: 2, A: 1, B: 0})
	concrete := int64(0) - int64(huge)
	if !st[2].contains(concrete) {
		t.Fatalf("0 - const(MinInt64) abstract [%s] excludes concrete %d", st[2], concrete)
	}
}

// TestFiniteOverflowWidens pins the wrap-vs-saturate fix on all three
// arithmetic ops: a corner product/sum of finite bounds that overflows
// int64 must widen the result to top, because the interpreter's
// wrapped value lies outside any saturated interval.
func TestFiniteOverflowWidens(t *testing.T) {
	big := ival{math.MaxInt64 - 1, math.MaxInt64 - 1}
	two := ival{2, 2}
	if got := big.add(two); got != fullIval() {
		t.Errorf("(MaxInt64-1) + 2: got [%s], want top", got)
	}
	if got := (ival{math.MinInt64 + 1, math.MinInt64 + 1}).sub(two); got != fullIval() {
		t.Errorf("(MinInt64+1) - 2: got [%s], want top", got)
	}
	if got := big.mul(two); got != fullIval() {
		t.Errorf("(MaxInt64-1) * 2: got [%s], want top", got)
	}
	// Infinite bounds still absorb without widening the finite side.
	if got := (ival{0, iInf}).add(ival{5, 5}); got != (ival{5, iInf}) {
		t.Errorf("[0,+inf] + 5: got [%s], want [5,+inf]", got)
	}
}
