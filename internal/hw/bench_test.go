package hw

import "testing"

// Performance of the hot simulator paths. Every ground-truth sweep is
// one table pass (Spec.Sweep: 196 points per kernel on the V100, the
// workload validated and its terms computed once); Evaluate is the
// one-point path the virtual device takes per kernel launch; energy
// integration dominates profiling queries.

func BenchmarkEvaluate(b *testing.B) {
	spec := V100()
	w := Workload{Name: "bench", Items: 1 << 22, FloatOps: 120, GlobalBytes: 24}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Evaluate(w, spec.DefaultCoreMHz); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullFrequencySweep(b *testing.B) {
	spec := V100()
	w := Workload{Name: "bench", Items: 1 << 22, FloatOps: 120, GlobalBytes: 24}
	ms := make([]Measurement, len(spec.CoreFreqsMHz))
	fill := func(i int, m Measurement) error {
		ms[i] = m
		return nil
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := spec.Sweep(w, fill); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnergyBetween(b *testing.B) {
	d := NewDevice(V100())
	w := Workload{Name: "bench", Items: 1 << 20, FloatOps: 60, GlobalBytes: 16}
	for i := 0; i < 1000; i++ {
		if _, err := d.ExecuteKernel(w); err != nil {
			b.Fatal(err)
		}
	}
	end := d.Now()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.EnergyBetween(0, end)
	}
}

func BenchmarkSampledEnergyBetween(b *testing.B) {
	d := NewDevice(V100())
	w := Workload{Name: "bench", Items: 1 << 24, FloatOps: 60, GlobalBytes: 64}
	for i := 0; i < 50; i++ {
		if _, err := d.ExecuteKernel(w); err != nil {
			b.Fatal(err)
		}
	}
	end := d.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SampledEnergyBetween(0, end, 0.015)
	}
}
