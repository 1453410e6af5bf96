package hw

import (
	"errors"
	"math"
	"testing"
)

// Reference workloads spanning the compute/memory-bound spectrum.
func computeBoundWL() Workload {
	return Workload{Name: "cb", Items: 1 << 20, FloatOps: 2000, GlobalBytes: 8}
}

func memoryBoundWL() Workload {
	return Workload{Name: "mb", Items: 1 << 20, FloatOps: 40, GlobalBytes: 64}
}

// sweepAll collects the measurements of s.Sweep into a slice.
func sweepAll(t *testing.T, s *Spec, w Workload) []Measurement {
	t.Helper()
	ms := make([]Measurement, len(s.CoreFreqsMHz))
	if err := s.Sweep(w, func(i int, m Measurement) error {
		ms[i] = m
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestEvaluateDeterministic(t *testing.T) {
	t.Parallel()
	s := V100()
	w := computeBoundWL()
	a, err := s.Evaluate(w, s.DefaultCoreMHz)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Evaluate(w, s.DefaultCoreMHz)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("Evaluate not deterministic: %+v vs %+v", a, b)
	}
}

func TestEvaluateEnergyIsPowerTimesTime(t *testing.T) {
	t.Parallel()
	s := V100()
	for _, w := range []Workload{computeBoundWL(), memoryBoundWL()} {
		for _, f := range []int{s.MinCoreMHz(), s.DefaultCoreMHz, s.MaxCoreMHz()} {
			m, err := s.Evaluate(w, f)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(m.EnergyJ-m.PowerW*m.TimeSec) > 1e-9*m.EnergyJ {
				t.Errorf("%s@%d: energy %.6g != P*t %.6g", w.Name, f, m.EnergyJ, m.PowerW*m.TimeSec)
			}
		}
	}
}

func TestEvaluateRejectsUnsupportedFrequency(t *testing.T) {
	t.Parallel()
	s := V100()
	if _, err := s.Evaluate(computeBoundWL(), 1311); err == nil {
		t.Fatal("unsupported frequency accepted")
	}
}

func TestEvaluateRejectsInvalidWorkload(t *testing.T) {
	t.Parallel()
	s := V100()
	if _, err := s.Evaluate(Workload{Name: "empty", Items: 0}, s.DefaultCoreMHz); err == nil {
		t.Error("zero-item workload accepted")
	}
	if _, err := s.Evaluate(Workload{Name: "neg", Items: 10, FloatOps: -1}, s.DefaultCoreMHz); err == nil {
		t.Error("negative op count accepted")
	}
	if _, err := s.Evaluate(Workload{Name: "nowork", Items: 10}, s.DefaultCoreMHz); err == nil {
		t.Error("no-work workload accepted")
	}
}

func TestPowerNeverExceedsTDP(t *testing.T) {
	t.Parallel()
	for _, s := range []*Spec{V100(), A100(), MI100()} {
		for _, w := range []Workload{computeBoundWL(), memoryBoundWL()} {
			for i, m := range sweepAll(t, s, w) {
				if m.PowerW > s.TDPWatts+1e-9 {
					t.Errorf("%s %s@%d MHz: power %.1f W exceeds TDP %.1f",
						s.Name, w.Name, s.CoreFreqsMHz[i], m.PowerW, s.TDPWatts)
				}
			}
		}
	}
}

func TestTimeDecreasesWithFrequency(t *testing.T) {
	t.Parallel()
	// Up to the ~1.2% noise, higher clocks are never slower.
	s := V100()
	ms := sweepAll(t, s, computeBoundWL())
	for i := 1; i < len(ms); i++ {
		if ms[i].TimeSec > ms[i-1].TimeSec*1.03 {
			t.Fatalf("time increased with frequency at %d MHz: %.6g -> %.6g",
				s.CoreFreqsMHz[i], ms[i-1].TimeSec, ms[i].TimeSec)
		}
	}
}

func TestComputeBoundScalesWithFrequency(t *testing.T) {
	t.Parallel()
	// For a compute-bound kernel, t(fmax)/t(fmin) ~ fmin/fmax.
	s := V100()
	w := computeBoundWL()
	lo, err := s.Evaluate(w, s.MinCoreMHz())
	if err != nil {
		t.Fatal(err)
	}
	hi, err := s.Evaluate(w, s.MaxCoreMHz())
	if err != nil {
		t.Fatal(err)
	}
	ratio := lo.TimeSec / hi.TimeSec
	ideal := float64(s.MaxCoreMHz()) / float64(s.MinCoreMHz())
	if ratio < 0.75*ideal {
		t.Fatalf("compute-bound speedup %.2f far below frequency ratio %.2f", ratio, ideal)
	}
	if hi.ComputeUtil < 0.9 {
		t.Fatalf("compute-bound kernel has compute utilisation %.2f", hi.ComputeUtil)
	}
}

func TestMemoryBoundFlatAboveKnee(t *testing.T) {
	t.Parallel()
	// Above the bandwidth knee, time is nearly frequency-independent.
	s := V100()
	w := memoryBoundWL()
	knee := int(s.BWKneeFrac * float64(s.MaxCoreMHz()))
	fa := s.NearestCoreFreq(knee + 100)
	fb := s.MaxCoreMHz()
	a, err := s.Evaluate(w, fa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Evaluate(w, fb)
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeSec > b.TimeSec*1.08 {
		t.Fatalf("memory-bound kernel slowed %.1f%% between %d and %d MHz; expected near-flat",
			100*(a.TimeSec/b.TimeSec-1), fa, fb)
	}
	if b.MemUtil < 0.9 {
		t.Fatalf("memory-bound kernel has memory utilisation %.2f", b.MemUtil)
	}
}

// TestFig2ComputeBoundEnergyShape pins the lin_reg-style behaviour of
// Fig. 2a: compute-bound kernels have little energy headroom (< ~12%)
// and the lowest frequencies are grossly energy-inefficient.
func TestFig2ComputeBoundEnergyShape(t *testing.T) {
	t.Parallel()
	s := V100()
	ms := sweepAll(t, s, computeBoundWL())
	def, err := s.Evaluate(computeBoundWL(), s.DefaultCoreMHz)
	if err != nil {
		t.Fatal(err)
	}
	minE := math.Inf(1)
	for _, m := range ms {
		if m.EnergyJ < minE {
			minE = m.EnergyJ
		}
	}
	saving := 1 - minE/def.EnergyJ
	if saving > 0.15 {
		t.Errorf("compute-bound best saving %.1f%%, paper shape wants <~12%%", 100*saving)
	}
	if saving < 0.02 {
		t.Errorf("compute-bound best saving %.1f%%, expected a few percent headroom", 100*saving)
	}
	if ms[0].EnergyJ < def.EnergyJ*1.3 {
		t.Errorf("lowest frequency should be grossly inefficient: e(min)=%.3g vs e(def)=%.3g",
			ms[0].EnergyJ, def.EnergyJ)
	}
}

// TestFig2MemoryBoundEnergyShape pins the median-filter/matmul-style
// behaviour (Fig. 2b, Fig. 7a): memory-bound kernels can save >=20%
// energy while losing little performance.
func TestFig2MemoryBoundEnergyShape(t *testing.T) {
	t.Parallel()
	s := V100()
	w := memoryBoundWL()
	def, err := s.Evaluate(w, s.DefaultCoreMHz)
	if err != nil {
		t.Fatal(err)
	}
	bestSaving, lossAtBest := 0.0, 0.0
	for _, f := range s.CoreFreqsMHz {
		m, err := s.Evaluate(w, f)
		if err != nil {
			t.Fatal(err)
		}
		saving := 1 - m.EnergyJ/def.EnergyJ
		if saving > bestSaving {
			bestSaving = saving
			lossAtBest = m.TimeSec/def.TimeSec - 1
		}
	}
	if bestSaving < 0.20 {
		t.Errorf("memory-bound best saving %.1f%%, paper shape wants >=20%%", 100*bestSaving)
	}
	if lossAtBest > 0.30 {
		t.Errorf("perf loss at best saving %.1f%%, want moderate (<30%%)", 100*lossAtBest)
	}
}

// TestMI100DefaultIsBestPerformance pins the §8.2 observation: on the
// MI100 the (auto/max) default configuration always delivers the best
// performance.
func TestMI100DefaultIsBestPerformance(t *testing.T) {
	t.Parallel()
	s := MI100()
	for _, w := range []Workload{computeBoundWL(), memoryBoundWL()} {
		base, err := s.Evaluate(w, s.BaselineCoreMHz())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range s.CoreFreqsMHz {
			m, err := s.Evaluate(w, f)
			if err != nil {
				t.Fatal(err)
			}
			if m.TimeSec < base.TimeSec*0.97 {
				t.Errorf("%s: %d MHz beats the MI100 default by %.1f%%",
					w.Name, f, 100*(1-m.TimeSec/base.TimeSec))
			}
		}
	}
}

func TestThrottleEngagesOnlyNearTDP(t *testing.T) {
	t.Parallel()
	s := V100()
	w := computeBoundWL()
	m, err := s.Evaluate(w, s.MinCoreMHz())
	if err != nil {
		t.Fatal(err)
	}
	if m.Throttled {
		t.Error("throttled at minimum frequency")
	}
}

func TestSweepLengthMatchesTable(t *testing.T) {
	t.Parallel()
	s := A100()
	var visited []int
	err := s.Sweep(memoryBoundWL(), func(i int, _ Measurement) error {
		visited = append(visited, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != len(s.CoreFreqsMHz) {
		t.Fatalf("sweep visited %d points for %d frequencies", len(visited), len(s.CoreFreqsMHz))
	}
	for i, v := range visited {
		if v != i {
			t.Fatalf("sweep visited index %d at step %d", v, i)
		}
	}
}

// TestSweepStopsAtFirstError: Sweep returns the callback's first error
// and calls it no further; an invalid workload fails before any point.
func TestSweepStopsAtFirstError(t *testing.T) {
	t.Parallel()
	s := V100()
	stop := errors.New("stop")
	calls := 0
	err := s.Sweep(memoryBoundWL(), func(i int, _ Measurement) error {
		calls++
		if i == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || calls != 4 {
		t.Fatalf("err = %v after %d calls, want %v after 4", err, calls, stop)
	}
	calls = 0
	err = s.Sweep(Workload{Name: "empty"}, func(int, Measurement) error {
		calls++
		return nil
	})
	if err == nil || calls != 0 {
		t.Fatalf("invalid workload: err = %v after %d calls, want an error before any", err, calls)
	}
}

func TestWorkloadTotalOpsWeighting(t *testing.T) {
	t.Parallel()
	w := Workload{Name: "w", Items: 1, IntOps: 1, FloatOps: 1, DivOps: 1, SFOps: 1, LocalBytes: 4}
	want := 1 + 1 + divWeight + sfWeight + localWeight
	if got := w.TotalOps(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TotalOps = %v, want %v", got, want)
	}
}
