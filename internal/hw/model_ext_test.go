package hw_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/features"
	"synergy/internal/hw"
)

// sameBits reports whether two measurements agree bit for bit.
func sameBits(a, b hw.Measurement) bool {
	return math.Float64bits(a.TimeSec) == math.Float64bits(b.TimeSec) &&
		math.Float64bits(a.PowerW) == math.Float64bits(b.PowerW) &&
		math.Float64bits(a.EnergyJ) == math.Float64bits(b.EnergyJ) &&
		math.Float64bits(a.ComputeUtil) == math.Float64bits(b.ComputeUtil) &&
		math.Float64bits(a.MemUtil) == math.Float64bits(b.MemUtil) &&
		a.Throttled == b.Throttled
}

// randomWorkload draws a valid workload whose launch size spans ten
// decades and whose per-item costs span seven, a quarter of them zero,
// so launches range from pure compute to pure traffic over sixteen
// decades of work.
func randomWorkload(r *rand.Rand, i int) hw.Workload {
	cost := func() float64 {
		if r.IntN(4) == 0 {
			return 0
		}
		return math.Pow(10, -3+7*r.Float64())
	}
	w := hw.Workload{
		Name:        fmt.Sprintf("random%d", i),
		Items:       int64(math.Pow(10, 10*r.Float64())) + 1,
		IntOps:      cost(),
		FloatOps:    cost(),
		DivOps:      cost(),
		SFOps:       cost(),
		GlobalBytes: cost(),
		LocalBytes:  cost(),
	}
	if w.Validate() != nil {
		w.FloatOps = 1
	}
	return w
}

// TestModelMatchesReference holds Evaluate, PhaseTimes and the table
// pass of Sweep to the reference model, bit for bit, on every built-in
// spec: for the suite's kernels at four launch sizes and for random
// workloads spanning many decades.
func TestModelMatchesReference(t *testing.T) {
	t.Parallel()
	var ws []hw.Workload
	for _, name := range benchsuite.Names() {
		b, err := benchsuite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, items := range []int64{1, 1 << 10, 1 << 22, b.CharItems} {
			w, err := features.KernelWorkload(b.Kernel, items)
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, w)
		}
	}
	r := rand.New(rand.NewPCG(3, 4))
	for i := range 400 {
		ws = append(ws, randomWorkload(r, i))
	}
	for _, key := range hw.BuiltinNames() {
		spec, err := hw.SpecByName(key)
		if err != nil {
			t.Fatal(err)
		}
		ms := make([]hw.Measurement, len(spec.CoreFreqsMHz))
		for _, w := range ws {
			if err := spec.Sweep(w, func(i int, m hw.Measurement) error {
				ms[i] = m
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i, f := range spec.CoreFreqsMHz {
				want, err := hw.ReferenceEvaluate(spec, w, f)
				if err != nil {
					t.Fatal(err)
				}
				got, err := spec.Evaluate(w, f)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) || !sameBits(ms[i], want) {
					t.Fatalf("%s %+v at %d MHz: Evaluate %+v, Sweep %+v, reference %+v", key, w, f, got, ms[i], want)
				}
				tc, tm := spec.PhaseTimes(w, f)
				rc, rm := hw.ReferencePhaseTimes(spec, w, f)
				if math.Float64bits(tc) != math.Float64bits(rc) || math.Float64bits(tm) != math.Float64bits(rm) {
					t.Fatalf("%s %+v at %d MHz: PhaseTimes %g, %g, reference %g, %g", key, w, f, tc, tm, rc, rm)
				}
			}
		}
	}
}
