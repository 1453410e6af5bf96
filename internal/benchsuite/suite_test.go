package benchsuite

import (
	"testing"

	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/metrics"
)

func TestSuiteHas23Benchmarks(t *testing.T) {
	bs := All()
	if len(bs) != 23 {
		t.Fatalf("suite has %d benchmarks, want 23 (paper §8.1)", len(bs))
	}
	seen := map[string]bool{}
	for _, b := range bs {
		if seen[b.Name] {
			t.Fatalf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.Kernel == nil || b.NewInstance == nil || b.CharItems <= 0 {
			t.Fatalf("benchmark %q incompletely defined", b.Name)
		}
	}
	// The benchmarks the paper's figures single out must be present.
	for _, name := range []string{"matmul", "sobel3", "median", "lin_reg_coeff", "black_scholes"} {
		if !seen[name] {
			t.Errorf("figure benchmark %q missing from suite", name)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("black_scholes")
	if err != nil || b.Name != "black_scholes" {
		t.Fatalf("ByName: %v, %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark found")
	}
}

// TestAllBenchmarksExecuteAndVerify is the suite's master correctness
// test: every kernel runs through the interpreter and its outputs match
// the straight-Go reference.
func TestAllBenchmarksExecuteAndVerify(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			inst, err := b.NewInstance(1 << 10)
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.Run(b.Kernel); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllKernelsValidate(t *testing.T) {
	for _, b := range All() {
		if err := b.Kernel.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestAllKernelsHaveNonTrivialFeatures(t *testing.T) {
	for _, b := range All() {
		v, err := features.Extract(b.Kernel)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if v.GlAccess == 0 {
			t.Errorf("%s: no global accesses", b.Name)
		}
		if v.Total() < 2 {
			t.Errorf("%s: feature total %v suspiciously small", b.Name, v.Total())
		}
	}
}

// arithmeticIntensity returns weighted ops per DRAM byte on the V100
// model, the quantity that drives each benchmark's energy character.
func arithmeticIntensity(t *testing.T, name string) float64 {
	t.Helper()
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := features.KernelWorkload(b.Kernel, b.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	if w.GlobalBytes == 0 {
		return 1e9
	}
	return w.TotalOps() / w.GlobalBytes
}

func TestSuiteSpansComputeAndMemoryBound(t *testing.T) {
	// The suite must cover both ends of the roofline, or the per-kernel
	// characterisations of Figs. 2/7/8 would all look alike.
	compute := []string{"lin_reg_coeff", "mandelbrot", "nbody", "arith"}
	memory := []string{"vec_add", "reduction", "mvt", "gesummv", "matmul"}
	for _, name := range compute {
		if ai := arithmeticIntensity(t, name); ai < 6 {
			t.Errorf("%s: arithmetic intensity %.1f ops/B, expected compute-bound (>6)", name, ai)
		}
	}
	for _, name := range memory {
		if ai := arithmeticIntensity(t, name); ai > 4 {
			t.Errorf("%s: arithmetic intensity %.1f ops/B, expected memory-bound (<4)", name, ai)
		}
	}
}

// sweep runs a ground-truth frequency sweep on the V100 model.
func sweep(t *testing.T, name string) *metrics.Sweep {
	t.Helper()
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec := hw.V100()
	w, err := features.KernelWorkload(b.Kernel, b.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]metrics.Point, len(spec.CoreFreqsMHz))
	err = spec.Sweep(w, func(i int, m hw.Measurement) error {
		pts[i] = metrics.Point{FreqMHz: spec.CoreFreqsMHz[i], TimeSec: m.TimeSec, EnergyJ: m.EnergyJ}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := metrics.NewSweep(pts, spec.DefaultCoreMHz)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFig2Characters pins the paper's Fig. 2 contrast on the V100:
// lin_reg has little energy headroom; median saves over 20%.
func TestFig2Characters(t *testing.T) {
	lin := sweep(t, "lin_reg_coeff")
	med := sweep(t, "median")

	linMin, _ := lin.Select(metrics.MinEnergy)
	linSaving := 1 - linMin.EnergyJ/lin.BaselinePoint().EnergyJ
	if linSaving > 0.13 {
		t.Errorf("lin_reg_coeff max saving %.1f%%, Fig. 2a shape wants <~10%%", 100*linSaving)
	}

	medMin, _ := med.Select(metrics.MinEnergy)
	medSaving := 1 - medMin.EnergyJ/med.BaselinePoint().EnergyJ
	if medSaving < 0.18 {
		t.Errorf("median max saving %.1f%%, Fig. 2b shape wants >20%%", 100*medSaving)
	}
	medLoss := medMin.TimeSec/med.BaselinePoint().TimeSec - 1
	if medLoss > 0.5 {
		t.Errorf("median perf loss at min energy %.1f%%, expected moderate", 100*medLoss)
	}
}

// TestFig7MatmulVsSobel pins the Fig. 7 contrast: matmul speedup barely
// moves across its Pareto front; sobel3's varies widely.
func TestFig7MatmulVsSobel(t *testing.T) {
	span := func(name string) (float64, float64) {
		s := sweep(t, name)
		front := s.ParetoFront()
		base := s.BaselinePoint()
		lo, hi := 1e30, -1e30
		for _, p := range front {
			sp := base.TimeSec / p.TimeSec
			if sp < lo {
				lo = sp
			}
			if sp > hi {
				hi = sp
			}
		}
		return lo, hi
	}
	mmLo, mmHi := span("matmul")
	sbLo, sbHi := span("sobel3")
	if mmHi-mmLo > 0.35 {
		t.Errorf("matmul Pareto speedup span [%.2f, %.2f] too wide (paper: 0.95–1.01)", mmLo, mmHi)
	}
	if sbHi-sbLo < 0.25 {
		t.Errorf("sobel3 Pareto speedup span [%.2f, %.2f] too narrow (paper: 0.73–1.15)", sbLo, sbHi)
	}
	if sbHi < 1.05 {
		t.Errorf("sobel3 max speedup %.2f; raising clocks above default should help (paper: 1.15)", sbHi)
	}
	// Matmul: large savings at small loss (paper: 33% / 5%).
	mm := sweep(t, "matmul")
	best, _ := mm.Select(metrics.ES(75))
	saving := 1 - best.EnergyJ/mm.BaselinePoint().EnergyJ
	loss := best.TimeSec/mm.BaselinePoint().TimeSec - 1
	if saving < 0.15 || loss > 0.15 {
		t.Errorf("matmul ES_75: saving %.1f%%, loss %.1f%%; want deep saving at small loss", 100*saving, 100*loss)
	}
}

func TestInstancesAreDeterministic(t *testing.T) {
	b, err := ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	i1, err := b.NewInstance(256)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := b.NewInstance(256)
	if err != nil {
		t.Fatal(err)
	}
	a1 := i1.Args.F32["a"]
	a2 := i2.Args.F32["a"]
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("instance data not deterministic")
		}
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	b, err := ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := b.NewInstance(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(b.Kernel); err != nil {
		t.Fatal(err)
	}
	inst.Args.F32["c"][7] += 1
	if err := inst.Verify(); err == nil {
		t.Fatal("verifier accepted corrupted output")
	}
}
