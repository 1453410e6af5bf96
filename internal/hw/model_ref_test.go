package hw

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// The device model as it stood when Evaluate computed every point from
// scratch, math.Pow and all: the oracle TestModelMatchesReference holds
// Evaluate, PhaseTimes and Sweep to, bit for bit.

// ReferenceEvaluate and ReferencePhaseTimes expose the oracle to the
// external test package, which can import the benchmark suite.
var (
	ReferenceEvaluate   = (*Spec).referenceEvaluate
	ReferencePhaseTimes = (*Spec).referencePhaseTimes
)

func (s *Spec) referenceEffectiveBandwidth(coreMHz int) float64 {
	knee := s.BWKneeFrac * float64(s.MaxCoreMHz())
	f := float64(coreMHz)
	if f >= knee {
		return s.MemBWBytes
	}
	return s.MemBWBytes * math.Pow(f/knee, 0.82)
}

func (s *Spec) referencePhaseTimes(w Workload, coreMHz int) (compute, memory float64) {
	fHz := float64(coreMHz) * 1e6
	opsPerSec := float64(s.SMs) * float64(s.LanesPerSM) * fHz * ipcEff
	items := float64(w.Items)
	return items * w.TotalOps() / opsPerSec, items * w.GlobalBytes / s.referenceEffectiveBandwidth(coreMHz)
}

func referenceNoisePair(name string, coreMHz int, items int64) (float64, float64) {
	seed := hashString(name) ^ splitmix64(uint64(coreMHz)) ^ splitmix64(uint64(items)*0x9e3779b9)
	a := splitmix64(seed)
	b := splitmix64(a)
	return unit(a), unit(b)
}

func (s *Spec) referenceEvaluate(w Workload, coreMHz int) (Measurement, error) {
	if err := w.Validate(); err != nil {
		return Measurement{}, err
	}
	if !s.SupportsCoreFreq(coreMHz) {
		return Measurement{}, fmt.Errorf("hw: %s does not support core frequency %d MHz", s.Name, coreMHz)
	}

	items := float64(w.Items)
	tc, tm := s.referencePhaseTimes(w, coreMHz)

	// Smooth-max roofline: phases overlap, but the longer one dominates.
	var t float64
	switch {
	case tc == 0:
		t = tm
	case tm == 0:
		t = tc
	default:
		t = math.Pow(math.Pow(tc, smoothMaxP)+math.Pow(tm, smoothMaxP), 1/smoothMaxP)
	}
	uc, um := 0.0, 0.0
	if t > 0 {
		uc = tc / t
		um = tm / t
	}
	t += s.LaunchOverheadSec

	v := s.Voltage(coreMHz)
	fGHz := float64(coreMHz) / 1000
	activity := s.BaseActivity + (1-s.BaseActivity)*uc
	pCore := s.CoreDynCoeff * fGHz * v * v * activity
	bwUtil := 0.0
	if t > 0 {
		bwUtil = items * w.GlobalBytes / t / s.MemBWBytes
		if bwUtil > 1 {
			bwUtil = 1
		}
	}
	pMem := s.MemDynCoeff * bwUtil
	pLeak := s.LeakCoeff * v * v
	p := s.IdlePowerW + pCore + pMem + pLeak

	// Deterministic measurement noise (~±1.2% time, ±1.5% power).
	nt, np := referenceNoisePair(w.Name, coreMHz, w.Items)
	t *= 1 + 0.012*nt
	p *= 1 + 0.015*np

	throttled := false
	if p > s.TDPWatts {
		// Hardware power capping: the board throttles so the average
		// power equals the TDP; work completes proportionally slower.
		t *= p / s.TDPWatts
		p = s.TDPWatts
		throttled = true
	}

	return Measurement{
		TimeSec:     t,
		PowerW:      p,
		EnergyJ:     p * t,
		ComputeUtil: uc,
		MemUtil:     um,
		Throttled:   throttled,
	}, nil
}

// checkPowForms fails t unless the model's three powers give
// math.Pow's bits at x.
func checkPowForms(t *testing.T, x float64) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"pow4", pow4(x), math.Pow(x, 4)},
		{"root4", root4(x), math.Pow(x, 0.25)},
		{"pow082", pow082(x), math.Pow(x, 0.82)},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s(%g [%#x]) = %g [%#x], math.Pow gives %g [%#x]",
				c.name, x, math.Float64bits(x), c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
}

// FuzzPowForms holds pow4, root4 and pow082 to math.Pow bit for bit on
// fuzzer-chosen float64 bit patterns: subnormals, huge values,
// negatives, zeros, infinities and NaNs, and the guards' edges.
func FuzzPowForms(f *testing.F) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 2, 0.16, 123.456, -3.5,
		1e-70, math.Nextafter(1e-70, 1), 1e70, math.Nextafter(1e70, 0),
		1e-300, math.Nextafter(1e-300, 1), 1e300, math.Nextafter(1e300, 0),
		math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkPowForms(t, math.Float64frombits(bits))
	})
}

// TestPowFormsMatchPow runs the fuzz check over random bit patterns and
// over values spread evenly in log scale across the whole float64 range,
// most of them inside the guards.
func TestPowFormsMatchPow(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(1, 2))
	for range 1 << 16 {
		checkPowForms(t, math.Float64frombits(r.Uint64()))
		checkPowForms(t, math.Pow(10, -320+630*r.Float64()))
	}
}
