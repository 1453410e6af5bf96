package hw

import (
	"math"
	"testing"
	"testing/quick"
)

// randomWorkload maps arbitrary quick-generated bytes to a valid
// workload spanning the compute/memory spectrum.
func randomWorkload(a, b, c, d uint8) Workload {
	return Workload{
		Name:        "prop",
		Items:       1 << (10 + uint(a)%12), // 1k .. 4M items
		IntOps:      float64(b % 64),
		FloatOps:    float64(c%200) + 1,
		DivOps:      float64(a % 8),
		SFOps:       float64(b % 4),
		GlobalBytes: float64(d%128) + 4,
		LocalBytes:  float64(c % 16),
	}
}

// Property: for any workload and any frequency, power stays within
// [idle, TDP] and time/energy are positive and finite.
func TestPropPowerAndEnergyBounds(t *testing.T) {
	t.Parallel()
	specs := []*Spec{V100(), A100(), MI100()}
	f := func(a, b, c, d uint8, si uint8, fi uint16) bool {
		spec := specs[int(si)%len(specs)]
		freq := spec.CoreFreqsMHz[int(fi)%len(spec.CoreFreqsMHz)]
		m, err := spec.Evaluate(randomWorkload(a, b, c, d), freq)
		if err != nil {
			return false
		}
		if m.TimeSec <= 0 || math.IsNaN(m.TimeSec) || math.IsInf(m.TimeSec, 0) {
			return false
		}
		if m.EnergyJ <= 0 || math.IsNaN(m.EnergyJ) {
			return false
		}
		return m.PowerW >= spec.IdlePowerW*0.9 && m.PowerW <= spec.TDPWatts+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: time never increases with frequency beyond the noise band.
func TestPropTimeMonotoneInFrequency(t *testing.T) {
	t.Parallel()
	spec := V100()
	f := func(a, b, c, d uint8, f1, f2 uint8) bool {
		i1 := int(f1) % len(spec.CoreFreqsMHz)
		i2 := int(f2) % len(spec.CoreFreqsMHz)
		if i1 > i2 {
			i1, i2 = i2, i1
		}
		if i1 == i2 {
			return true
		}
		w := randomWorkload(a, b, c, d)
		lo, err := spec.Evaluate(w, spec.CoreFreqsMHz[i1])
		if err != nil {
			return false
		}
		hi, err := spec.Evaluate(w, spec.CoreFreqsMHz[i2])
		if err != nil {
			return false
		}
		return hi.TimeSec <= lo.TimeSec*1.04 // ±1.2% noise on each side
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: time scales ~linearly with the launch size (same per-item
// cost; the fixed launch overhead shrinks relatively).
func TestPropTimeLinearInItems(t *testing.T) {
	t.Parallel()
	spec := V100()
	f := func(a, b, c, d uint8) bool {
		w := randomWorkload(a, b, c, d)
		w.Items = 1 << 20
		one, err := spec.Evaluate(w, spec.DefaultCoreMHz)
		if err != nil {
			return false
		}
		w2 := w
		w2.Items = w.Items * 4
		four, err := spec.Evaluate(w2, spec.DefaultCoreMHz)
		if err != nil {
			return false
		}
		// Compare the size-dependent part: the fixed launch overhead is
		// significant for cheap kernels at small sizes.
		ratio := (four.TimeSec - spec.LaunchOverheadSec) / (one.TimeSec - spec.LaunchOverheadSec)
		return ratio > 3.7 && ratio < 4.3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: evaluation is a pure function of (workload, frequency).
func TestPropEvaluateDeterministic(t *testing.T) {
	t.Parallel()
	spec := MI100()
	f := func(a, b, c, d uint8, fi uint8) bool {
		w := randomWorkload(a, b, c, d)
		freq := spec.CoreFreqsMHz[int(fi)%len(spec.CoreFreqsMHz)]
		m1, err1 := spec.Evaluate(w, freq)
		m2, err2 := spec.Evaluate(w, freq)
		return err1 == nil && err2 == nil && m1 == m2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
