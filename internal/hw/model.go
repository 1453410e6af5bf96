package hw

import (
	"fmt"
	"math"
)

// Workload is the device-level description of one kernel launch: how much
// work each work-item performs, broken down by resource. The compiler
// pass (internal/features) produces these numbers from the kernel IR, so
// the simulated ground truth is a (noisy, non-linear) function of the
// same static features the machine-learning models observe.
type Workload struct {
	// Name identifies the kernel (used to seed deterministic noise).
	Name string
	// Items is the number of work-items launched.
	Items int64
	// IntOps counts simple integer operations per work-item
	// (add/sub/mul/bitwise).
	IntOps float64
	// FloatOps counts simple floating-point operations per work-item
	// (add/sub/mul).
	FloatOps float64
	// DivOps counts divisions per work-item (integer and float); these
	// occupy the pipeline for many cycles.
	DivOps float64
	// SFOps counts special-function operations (sqrt, exp, log, sin...).
	SFOps float64
	// GlobalBytes counts DRAM traffic per work-item, in bytes.
	GlobalBytes float64
	// LocalBytes counts on-chip scratch/shared-memory traffic per
	// work-item, in bytes.
	LocalBytes float64
}

// TotalOps returns the weighted per-item operation count used by the
// compute-throughput model. Divisions and special functions are weighted
// by their pipeline occupancy.
func (w Workload) TotalOps() float64 {
	return w.IntOps + w.FloatOps + divWeight*w.DivOps + sfWeight*w.SFOps + localWeight*w.LocalBytes/4
}

// Validate reports an error for physically meaningless workloads.
func (w Workload) Validate() error {
	if w.Items <= 0 {
		return fmt.Errorf("hw: workload %q has non-positive item count %d", w.Name, w.Items)
	}
	for _, v := range []float64{w.IntOps, w.FloatOps, w.DivOps, w.SFOps, w.GlobalBytes, w.LocalBytes} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("hw: workload %q has invalid per-item cost", w.Name)
		}
	}
	if w.TotalOps() == 0 && w.GlobalBytes == 0 {
		return fmt.Errorf("hw: workload %q performs no work", w.Name)
	}
	return nil
}

// Pipeline weights: a division occupies the ALU for ~dozens of cycles and
// a special function runs on the (narrower) SFU. Local accesses cost a
// fraction of an op per 4-byte word.
const (
	divWeight   = 14.0
	sfWeight    = 7.0
	localWeight = 0.55
	// smoothMaxP controls overlap between compute and memory phases:
	// t = (t_c^p + t_m^p)^(1/p) approaches max(t_c, t_m) as p grows.
	// The model computes it through pow4 and root4, which fix p = 4.
	smoothMaxP = 4.0
	// ipcEff derates the ideal ops/cycle/lane throughput for issue
	// limits and divergence.
	ipcEff = 0.72
)

// SmoothMaxP exports the smooth-max exponent: with t = (tc^p + tm^p)^(1/p),
// the predicted log-log slope of time against frequency (above the
// bandwidth knee) is tc^p / (tc^p + tm^p), which the static roofline
// classifier and the sweep-based one both rely on.
const SmoothMaxP = smoothMaxP

// Measurement is the outcome of evaluating a workload at a frequency.
type Measurement struct {
	// TimeSec is the kernel execution time (launch overhead included).
	TimeSec float64
	// PowerW is the average board power while the kernel is resident.
	PowerW float64
	// EnergyJ = PowerW * TimeSec.
	EnergyJ float64
	// ComputeUtil and MemUtil are the model's internal utilisations
	// (exposed for tests and characterisation tooling).
	ComputeUtil, MemUtil float64
	// Throttled reports whether the TDP clamp engaged.
	Throttled bool
}

// Voltage returns the interpolated core voltage at coreMHz: linear in
// frequency, clamped below at the regulator's voltage floor.
func (s *Spec) Voltage(coreMHz int) float64 {
	fmin, fmax := float64(s.MinCoreMHz()), float64(s.MaxCoreMHz())
	f := float64(coreMHz)
	if floor := s.VFloorFrac * fmax; f < floor {
		f = floor
	}
	x := (f - fmin) / (fmax - fmin)
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	return s.VMinVolts + (s.VMaxVolts-s.VMinVolts)*x
}

// effectiveBandwidth returns the DRAM bandwidth reachable at the given
// core frequency. Below the knee the core cannot keep enough requests in
// flight and bandwidth degrades sub-linearly.
func (s *Spec) effectiveBandwidth(coreMHz int) float64 {
	knee := s.BWKneeFrac * float64(s.MaxCoreMHz())
	f := float64(coreMHz)
	if f >= knee {
		return s.MemBWBytes
	}
	return s.MemBWBytes * pow082(f/knee)
}

// The model's three powers, written as the operations Go's pure-Go
// math.Pow performs for these exponents: mantissa squaring with exact
// power-of-two rescaling for the integer part, Exp(yf*Log(x)) for the
// fractional part. The rescaling and the final Ldexp are exact while
// every intermediate is a normal float64, so inside each guard below
// the forms give that Pow's bits; outside it they call math.Pow. On
// s390x, whose math.Pow is assembly, the two may differ. The forms
// hold no add, and their float64 conversions keep a caller's add from
// fusing with their last multiply, so a port that fuses a multiply
// into the add after it rounds them as one that does not.

// pow4 returns math.Pow(x, 4). Inside 1e-70 < x < 1e70, x² and x⁴ are
// normal, and Pow squares x's mantissa twice, which rounds as x*x then
// x²*x² do.
func pow4(x float64) float64 {
	if 1e-70 < x && x < 1e70 {
		x2 := x * x
		return float64(x2 * x2)
	}
	return math.Pow(x, 4)
}

// root4 returns math.Pow(x, 0.25). For 1e-300 < x < 1e300 Pow takes
// its fractional path alone and rescales Exp(0.25*Log(x)) by 2⁰.
func root4(x float64) float64 {
	if 1e-300 < x && x < 1e300 {
		return math.Exp(0.25 * math.Log(x))
	}
	return math.Pow(x, 0.25)
}

// pow082 returns math.Pow(x, 0.82). Pow splits 0.82 into 1 + yf with
// yf = 0.82 - 1, computed in float64 as below, and multiplies
// Exp(yf*Log(x)) by x's mantissa before rescaling; inside
// 1e-300 < x < 1e300 both factors and the product are normal, so
// multiplying by x itself rounds the same.
func pow082(x float64) float64 {
	if 1e-300 < x && x < 1e300 {
		yf := 0.82
		yf--
		return float64(math.Exp(yf*math.Log(x)) * x)
	}
	return math.Pow(x, 0.82)
}

// loadTerms are the terms of the model that depend on the workload
// alone: the launch's weighted operations and DRAM bytes, and its noise
// seed without the clock's term.
type loadTerms struct {
	ops, bytes float64
	seed       uint64
}

// terms computes w's load terms; w is not validated.
func (w Workload) terms() loadTerms {
	items := float64(w.Items)
	return loadTerms{
		ops:   items * w.TotalOps(),
		bytes: items * w.GlobalBytes,
		seed:  hashString(w.Name) ^ splitmix64(uint64(w.Items)*0x9e3779b9),
	}
}

// clockTerms are the terms of the model that depend on the core clock
// alone.
type clockTerms struct {
	opsPerSec float64 // compute throughput
	bw        float64 // reachable DRAM bandwidth
	coreDyn   float64 // CoreDynCoeff·f[GHz]·V², dynamic core power before activity
	v         float64 // core voltage; measure forms the leak term from it
	seed      uint64  // the clock's term of the noise seed
}

// clock computes the clock terms at coreMHz, which is not checked
// against the frequency table.
func (s *Spec) clock(coreMHz int) clockTerms {
	fHz := float64(coreMHz) * 1e6
	v := s.Voltage(coreMHz)
	fGHz := float64(coreMHz) / 1000
	return clockTerms{
		opsPerSec: float64(s.SMs) * float64(s.LanesPerSM) * fHz * ipcEff,
		bw:        s.effectiveBandwidth(coreMHz),
		coreDyn:   s.CoreDynCoeff * fGHz * v * v,
		v:         v,
		seed:      splitmix64(uint64(coreMHz)),
	}
}

// phases returns the compute-pipeline and DRAM times of a launch.
func (c *clockTerms) phases(l *loadTerms) (compute, memory float64) {
	return l.ops / c.opsPerSec, l.bytes / c.bw
}

// PhaseTimes returns the two roofline phase times for workload w at core
// frequency coreMHz — the compute-pipeline time and the DRAM time for
// the whole launch, in seconds, before smooth-max combination, launch
// overhead, noise and power capping. Exposed so the static roofline
// classifier (internal/kernelir/analysis) labels kernels with exactly
// the arithmetic the ground-truth model uses; coreMHz is not checked
// against the frequency table.
func (s *Spec) PhaseTimes(w Workload, coreMHz int) (compute, memory float64) {
	l, c := w.terms(), s.clock(coreMHz)
	return c.phases(&l)
}

// measure is the model at one point: it combines a workload's terms
// with a clock's into the measurement there.
func (s *Spec) measure(l *loadTerms, c *clockTerms) Measurement {
	tc, tm := c.phases(l)

	// Smooth-max roofline: phases overlap, but the longer one dominates.
	var t float64
	switch {
	case tc == 0:
		t = tm
	case tm == 0:
		t = tc
	default:
		t = root4(pow4(tc) + pow4(tm))
	}
	uc, um := 0.0, 0.0
	if t > 0 {
		uc = tc / t
		um = tm / t
	}
	t += s.LaunchOverheadSec

	activity := s.BaseActivity + (1-s.BaseActivity)*uc
	pCore := c.coreDyn * activity
	bwUtil := 0.0
	if t > 0 {
		bwUtil = l.bytes / t / s.MemBWBytes
		if bwUtil > 1 {
			bwUtil = 1
		}
	}
	pMem := s.MemDynCoeff * bwUtil
	// The leak term is formed here, beside the sum it feeds, so a port
	// that fuses a multiply into the add after it rounds p as the model
	// always has.
	pLeak := s.LeakCoeff * c.v * c.v
	p := s.IdlePowerW + pCore + pMem + pLeak

	// Deterministic measurement noise (~±1.2% time, ±1.5% power).
	nt, np := noisePair(l.seed ^ c.seed)
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
	}
}

// Evaluate runs the analytic model: execution time and average power for
// workload w at core frequency coreMHz. It is a pure function (plus the
// deterministic per-(kernel,frequency) noise), so it can serve both the
// virtual device and offline ground-truth computation in tests.
func (s *Spec) Evaluate(w Workload, coreMHz int) (Measurement, error) {
	if err := w.Validate(); err != nil {
		return Measurement{}, err
	}
	if !s.SupportsCoreFreq(coreMHz) {
		return Measurement{}, fmt.Errorf("hw: %s does not support core frequency %d MHz", s.Name, coreMHz)
	}
	l, c := w.terms(), s.clock(coreMHz)
	return s.measure(&l, &c), nil
}

// Sweep evaluates the workload at every supported core frequency in one
// pass over the frequency table: it validates w and computes its terms
// once, then calls fn with each table index and the measurement there,
// as Evaluate would return it. It stops at and returns fn's first
// error.
func (s *Spec) Sweep(w Workload, fn func(i int, m Measurement) error) error {
	if err := w.Validate(); err != nil {
		return err
	}
	l := w.terms()
	for i, f := range s.CoreFreqsMHz {
		c := s.clock(f)
		if err := fn(i, s.measure(&l, &c)); err != nil {
			return err
		}
	}
	return nil
}
