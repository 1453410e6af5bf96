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

// TestDeviceExecuteMatchesModel: the virtual device adds nothing to the
// model. On every built-in spec, at the driver default and at every
// pinned clock, ExecuteKernel's measurement equals Evaluate at the
// effective clock bit for bit, and the timeline advances by exactly the
// kernel's time. The workloads are the suite's kernels at their
// characterisation size and two hot launches that saturate compute and
// memory together, so the TDP clamp engages (on every spec but the
// H100 and the Alveo, whose peak power stays below their TDP).
func TestDeviceExecuteMatchesModel(t *testing.T) {
	t.Parallel()
	throttled := 0
	var ws []hw.Workload
	for _, name := range benchsuite.Names() {
		b, err := benchsuite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := features.KernelWorkload(b.Kernel, b.CharItems)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	ws = append(ws,
		hw.Workload{Name: "hot", Items: 1 << 26, FloatOps: 4000, SFOps: 200, GlobalBytes: 2000},
		hw.Workload{Name: "hot-div", Items: 1 << 24, DivOps: 400, FloatOps: 1000, GlobalBytes: 500},
	)
	for _, key := range hw.BuiltinNames() {
		spec, err := hw.SpecByName(key)
		if err != nil {
			t.Fatal(err)
		}
		d := hw.NewDevice(spec)
		run := func(freq int) {
			for _, w := range ws {
				want, err := spec.Evaluate(w, freq)
				if err != nil {
					t.Fatal(err)
				}
				before := d.Now()
				rec, err := d.ExecuteKernel(w)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(rec.Measurement, want) {
					t.Fatalf("%s %s at %d MHz: device %+v, model %+v", key, w.Name, freq, rec.Measurement, want)
				}
				if rec.CoreMHz != freq || rec.Start != before || rec.End != before+want.TimeSec ||
					d.Now() != rec.End || rec.EnergyJ != want.EnergyJ || rec.AvgPowerW != want.PowerW {
					t.Fatalf("%s %s at %d MHz: record %+v from %g, now %g, model %+v", key, w.Name, freq, rec, before, d.Now(), want)
				}
				if want.Throttled {
					throttled++
				}
			}
		}
		run(spec.BaselineCoreMHz()) // driver default, or auto at the top clock
		for _, f := range spec.CoreFreqsMHz {
			if err := d.SetAppClock(f); err != nil {
				t.Fatal(err)
			}
			run(f)
		}
	}
	if throttled == 0 {
		t.Error("no workload engaged the TDP clamp")
	}
}
