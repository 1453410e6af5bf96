package analysis

import (
	"math"
	"math/bits"
	"strconv"

	"synergy/internal/kernelir"
)

// The bounds pass runs a forward constant/range propagation on the int
// register file (index arithmetic lives there; floats are not tracked)
// over an interval lattice, then judges every memory index:
//
//   - a local access whose whole interval lies outside [0, LocalF32) is
//     an error — it traps under kernelir.ExecuteChecked on every
//     work-item, because every instruction of a valid kernel executes;
//   - a local access that only may leave the window is a warning: the
//     interpreter clamps, so this is defined (if suspicious) behavior;
//   - a global access whose whole interval is negative is a warning.
//     Clamped global indices are an intentional idiom (boundary-clamped
//     stencils read in[gid-4]), so possible negatives stay silent and
//     even definite ones never rank as errors.
//
// Loop bodies are iterated to a small fixpoint: a few join rounds catch
// loop-invariant state, then registers still unstable are widened to ⊤
// before one final reporting pass. Widening only ever grows intervals,
// so the abstraction stays sound.

// iInf and iNegInf are the interval infinities. An infinite bound means
// "unknown in that direction" and absorbs in arithmetic; a computation
// on finite bounds that would overflow int64 instead widens the whole
// interval to ⊤ (the interpreter wraps on overflow, so a saturated bound
// would wrongly exclude the wrapped values — see ival.add).
//
// The sentinels coincide with MinInt64/MaxInt64, so those two values
// cannot be represented as finite bounds; constIval maps them to ⊤
// rather than letting a genuine constant masquerade as an infinity.
const (
	iInf    = int64(math.MaxInt64)
	iNegInf = int64(math.MinInt64)
)

// ival is an inclusive integer interval [lo, hi].
type ival struct{ lo, hi int64 }

func fullIval() ival            { return ival{iNegInf, iInf} }
func (v ival) isConst() bool    { return v.lo == v.hi && v.lo != iInf && v.lo != iNegInf }
func (v ival) nonNeg() bool     { return v.lo >= 0 }
func (v ival) join(w ival) ival { return ival{min(v.lo, w.lo), max(v.hi, w.hi)} }

// constIval tracks an exact constant, except for the two values the
// lattice reserves as ±inf sentinels — those become ⊤ so that later
// transfer functions never mistake a real MinInt64/MaxInt64 for an
// unbounded interval (negating a "constant" -inf, say).
func constIval(v int64) ival {
	if v == iInf || v == iNegInf {
		return fullIval()
	}
	return ival{v, v}
}

// sneg negates one bound, mapping the infinities onto each other. Plain
// negation would wrap iNegInf back onto itself, silently turning a
// "-inf" lower bound into a "-inf" *upper* bound when subtracting — the
// unsound corner the enumeration tests in bounds_enum_test.go pin.
// ok is false for the one finite bound whose negation lands on a
// sentinel (-(MinInt64+1) == MaxInt64); the caller must widen then.
func sneg(x int64) (int64, bool) {
	switch x {
	case iInf:
		return iNegInf, true
	case iNegInf:
		return iInf, true
	case iNegInf + 1:
		return iInf, false
	default:
		return -x, true // safe: x != MinInt64 (that value is the sentinel)
	}
}

// sadd adds two bounds. ok is false when two *finite* bounds overflowed
// int64: the result is then saturated, but the caller must widen to ⊤
// because the interpreter wraps and the wrapped values lie outside any
// saturated interval. Infinite operands absorb exactly (ok stays true).
func sadd(a, b int64) (int64, bool) {
	switch {
	case a == iInf || b == iInf:
		return iInf, true
	case a == iNegInf || b == iNegInf:
		return iNegInf, true
	case b > 0 && a > iInf-b:
		return iInf, false
	case b < 0 && a < iNegInf-b:
		return iNegInf, false
	default:
		s := a + b
		if s == iInf || s == iNegInf {
			// A finite sum landing exactly on a sentinel is unrepresentable
			// as a finite bound; treat it as overflow so the caller widens.
			return s, false
		}
		return s, true
	}
}

// smul multiplies two bounds with 0·∞ = 0 (correct for interval corner
// products). As with sadd, ok is false when finite bounds overflowed —
// conservatively judged with float arithmetic well inside int64 range.
func smul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	aInf := a == iInf || a == iNegInf
	bInf := b == iInf || b == iNegInf
	if aInf || bInf {
		if (a > 0) == (b > 0) {
			return iInf, true
		}
		return iNegInf, true
	}
	// Exact when both magnitudes are small; otherwise judge overflow with
	// float arithmetic, treating anything past 1e18 as overflowing (the
	// float product is approximate, so the margin below 2^63 is needed).
	if abs64(a) < 1<<31 && abs64(b) < 1<<31 {
		return a * b, true
	}
	if p := float64(a) * float64(b); p > 1e18 {
		return iInf, false
	} else if p < -1e18 {
		return iNegInf, false
	}
	return a * b, true
}

// The no-overflow fiction: an infinite bound stands for "unknown in
// that direction", and the analysis assumes such unknown values are
// index-scale — magnitude below 2^31, far from the int64 extremes — so
// arithmetic can absorb an infinity instead of widening everything it
// touches. The assumption breaks when the *finite* bounds of the same
// operation are huge: then even fiction-scale unknowns push a sum or
// product past the wrap line, and because the interpreter wraps, the
// result set is no longer the interval the corners suggest (wrapped
// interior points escape it). These margins say how big a finite bound
// may be before an infinity-absorbing add/sub (resp. mul) must widen to
// ⊤: 2^62 + 2^31 and 2^31 · 2^31 both stay inside int64.
const (
	addFictionMag = int64(1) << 62
	mulFictionMag = int64(1) << 31
)

// hasInf reports whether either bound is an infinity sentinel.
func (v ival) hasInf() bool { return v.lo == iNegInf || v.hi == iInf }

// magBelow reports whether every finite bound of v has magnitude < m.
func (v ival) magBelow(m int64) bool {
	ok := func(x int64) bool {
		return x == iInf || x == iNegInf || (-m < x && x < m)
	}
	return ok(v.lo) && ok(v.hi)
}

// fictionHolds gates infinity absorption for one binary op: with no
// sentinel involved the corner arithmetic is checked exactly, otherwise
// all finite bounds must sit below the op's fiction margin.
func fictionHolds(v, w ival, m int64) bool {
	if !v.hasInf() && !w.hasInf() {
		return true
	}
	return v.magBelow(m) && w.magBelow(m)
}

// add, sub and mul widen to ⊤ whenever a corner computed from finite
// bounds overflows exactly, or an infinite bound mixes with finite
// bounds too large for the no-overflow fiction: the interpreter's
// arithmetic wraps, so the true result set is not an interval around
// the saturated corners.
func (v ival) add(w ival) ival {
	if !fictionHolds(v, w, addFictionMag) {
		return fullIval()
	}
	lo, ok1 := sadd(v.lo, w.lo)
	hi, ok2 := sadd(v.hi, w.hi)
	if !ok1 || !ok2 {
		return fullIval()
	}
	return ival{lo, hi}
}

// sub is addition of the negated interval; sneg keeps the infinities on
// the right side so v - [-inf, x] gets a +inf upper bound, not a -inf.
func (v ival) sub(w ival) ival {
	if !fictionHolds(v, w, addFictionMag) {
		return fullIval()
	}
	nhi, ok3 := sneg(w.hi)
	nlo, ok4 := sneg(w.lo)
	lo, ok1 := sadd(v.lo, nhi)
	hi, ok2 := sadd(v.hi, nlo)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return fullIval()
	}
	return ival{lo, hi}
}

func (v ival) mul(w ival) ival {
	if !fictionHolds(v, w, mulFictionMag) {
		return fullIval()
	}
	corners := [4][2]int64{{v.lo, w.lo}, {v.lo, w.hi}, {v.hi, w.lo}, {v.hi, w.hi}}
	var out ival
	for i, c := range corners {
		x, ok := smul(c[0], c[1])
		if !ok {
			return fullIval()
		}
		if i == 0 {
			out = ival{x, x}
		} else {
			out.lo, out.hi = min(out.lo, x), max(out.hi, x)
		}
	}
	return out
}

// transfer applies one instruction's effect to the int-register state.
// Every case must over-approximate the interpreter's semantics in
// interp.go (including div/rem-by-zero yielding 0).
func transfer(st []ival, in kernelir.Instr) {
	if w, ok := in.Write(); !ok || w.File != kernelir.I32 {
		return
	}
	// The int operands' intervals; float operands read as [0, 0], unused.
	var ops [3]ival
	rs, n := in.Reads()
	for i, r := range rs[:n] {
		if r.File == kernelir.I32 {
			ops[i] = st[r.N]
		}
	}
	a, b := ops[0], ops[1]
	var out ival
	switch in.Op {
	case kernelir.OpConstI:
		out = constIval(int64(in.Imm))
	case kernelir.OpMoveI:
		out = a
	case kernelir.OpGlobalID, kernelir.OpGlobalIDX, kernelir.OpGlobalIDY:
		out = ival{0, iInf}
	case kernelir.OpAddI:
		out = a.add(b)
	case kernelir.OpSubI:
		out = a.sub(b)
	case kernelir.OpMulI:
		out = a.mul(b)
	case kernelir.OpDivI:
		out = divIval(a, b)
	case kernelir.OpRemI:
		out = remIval(a, b)
	case kernelir.OpMinI:
		out = ival{min(a.lo, b.lo), min(a.hi, b.hi)}
	case kernelir.OpMaxI:
		out = ival{max(a.lo, b.lo), max(a.hi, b.hi)}
	case kernelir.OpCmpLTI, kernelir.OpCmpEQI, kernelir.OpCmpLTF:
		out = ival{0, 1}
	case kernelir.OpSelI:
		out = a.join(b)
	case kernelir.OpAndI:
		out = andIval(a, b)
	case kernelir.OpOrI, kernelir.OpXorI:
		out = orXorIval(a, b)
	case kernelir.OpShrI:
		if a.nonNeg() {
			out = ival{0, a.hi} // shifting a non-negative right shrinks it
		} else {
			out = fullIval()
		}
	default:
		// param.i, cvt.fi, ld.g.i, shl.i: unknown.
		out = fullIval()
	}
	st[in.Dst] = out
}

// divIval handles trunc division; the interpreter defines x/0 = 0.
func divIval(a, b ival) ival {
	if b.isConst() && b.lo != 0 {
		c := b.lo
		lo, hi := sdivBound(a.lo, c), sdivBound(a.hi, c)
		if c < 0 {
			lo, hi = hi, lo
		}
		return ival{lo, hi}
	}
	return fullIval()
}

func sdivBound(x, c int64) int64 {
	if x == iInf {
		if c > 0 {
			return iInf
		}
		return iNegInf
	}
	if x == iNegInf {
		if c > 0 {
			return iNegInf
		}
		return iInf
	}
	return x / c
}

// remIval: for a positive constant divisor c, the result lies in
// [0, c-1] for non-negative dividends and [-(c-1), c-1] otherwise (Go's
// % keeps the dividend's sign); x%0 = 0 in the interpreter.
func remIval(a, b ival) ival {
	if b.isConst() && b.lo > 0 {
		c := b.lo
		if a.nonNeg() {
			return ival{0, c - 1}
		}
		return ival{-(c - 1), c - 1}
	}
	return fullIval()
}

// andIval: x & y with a non-negative operand is bounded by it.
func andIval(a, b ival) ival {
	switch {
	case a.nonNeg() && b.nonNeg():
		return ival{0, min(a.hi, b.hi)}
	case a.nonNeg():
		return ival{0, a.hi}
	case b.nonNeg():
		return ival{0, b.hi}
	default:
		return fullIval()
	}
}

// orXorIval: for non-negative operands the result stays below the next
// power of two covering both.
func orXorIval(a, b ival) ival {
	if !a.nonNeg() || !b.nonNeg() {
		return fullIval()
	}
	m := max(a.hi, b.hi)
	if m >= 1<<62 {
		return ival{0, iInf}
	}
	return ival{0, int64(1)<<bits.Len64(uint64(m)) - 1}
}

// boundsPass runs the propagation and reports index findings.
func (a *analyzer) boundsPass() {
	st := make([]ival, a.k.NumIntRegs)
	// Registers are zero-initialized by the interpreter, so [0,0] is the
	// exact entry state, not an assumption.
	a.boundsScan(0, len(a.k.Body), st, true)
}

// boundsScan interprets body span [lo, hi) abstractly, mutating st.
// Diagnostics are emitted only when report is set (the fixpoint
// iterations run silently; one final pass reports).
func (a *analyzer) boundsScan(lo, hi int, st []ival, report bool) {
	k := a.k
	for pc := lo; pc < hi; pc++ {
		in := k.Body[pc]
		switch in.Op {
		case kernelir.OpRepeatBegin:
			end := a.tree.Match(pc)
			if skippableTrip(in.Imm) {
				// Dead body: state is unchanged, nothing inside runs.
				pc = end
				continue
			}
			a.boundsFix(pc+1, end, st)
			a.boundsScan(pc+1, end, st, report)
			pc = end
		case kernelir.OpRepeatEnd:
			// Unreachable: begins jump over their block.
		default:
			if report {
				a.checkIndex(pc, in, st)
			}
			transfer(st, in)
		}
	}
}

// boundsFix brings st to a loop-invariant entry state for body [lo, hi):
// a few silent join rounds for quickly-stabilizing loops, then widening
// of every register the body writes to ⊤.
func (a *analyzer) boundsFix(lo, hi int, st []ival) {
	const rounds = 3
	for i := 0; i < rounds; i++ {
		exit := append([]ival(nil), st...)
		a.boundsScan(lo, hi, exit, false)
		changed := false
		for r := range st {
			j := st[r].join(exit[r])
			if j != st[r] {
				st[r] = j
				changed = true
			}
		}
		if !changed {
			return
		}
	}
	for _, in := range a.k.Body[lo:hi] {
		if w, ok := in.Write(); ok && w.File == kernelir.I32 {
			st[w.N] = fullIval()
		}
	}
}

// checkIndex judges one instruction's memory index against st.
func (a *analyzer) checkIndex(pc int, in kernelir.Instr, st []ival) {
	info := in.Op.Info()
	switch {
	case info.IsLocal:
		idx := st[in.A]
		n := int64(a.k.LocalF32)
		if idx.hi < 0 || idx.lo >= n {
			a.diag("bounds", Error, pc,
				"local access index i%d = [%s] is outside [0, %d) on every work-item",
				in.A, idx, n)
		} else if idx.lo < 0 || idx.hi >= n {
			a.diag("bounds", Warning, pc,
				"local access index i%d = [%s] may leave [0, %d) (interpreter clamps)",
				in.A, idx, n)
		}
	case info.IsMemOp:
		if idx := st[in.A]; idx.hi < 0 {
			a.diag("bounds", Warning, pc,
				"global access index i%d = [%s] is negative on every work-item (clamped to 0)",
				in.A, idx)
		}
	}
}

// String renders the interval with ±inf bounds symbolically.
func (v ival) String() string {
	f := func(x int64) string {
		switch x {
		case iInf:
			return "+inf"
		case iNegInf:
			return "-inf"
		default:
			return strconv.FormatInt(x, 10)
		}
	}
	return f(v.lo) + ", " + f(v.hi)
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}
