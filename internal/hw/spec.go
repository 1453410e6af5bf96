// Package hw provides the simulated GPU hardware substrate used by the
// SYnergy reproduction: device descriptors with realistic DVFS frequency
// tables (NVIDIA V100/A100, AMD MI100, as reported in Fig. 1 of the
// paper), an analytic roofline execution-time model, a CMOS-style power
// model, and a virtual-time device timeline that integrates energy.
//
// The paper evaluates on real GPUs; this package is the documented
// substitution (see DESIGN.md §1). All behaviour is deterministic.
package hw

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Vendor identifies the GPU vendor, which selects the management-library
// backend (NVML for NVIDIA, ROCm SMI for AMD).
type Vendor int

const (
	// NVIDIA devices are managed through the simulated NVML binding.
	NVIDIA Vendor = iota
	// AMD devices are managed through the simulated ROCm SMI binding.
	AMD
	// Intel CPUs are managed through the simulated RAPL/cpufreq binding
	// (§2.1: RAPL provides the CPU-side power interface).
	Intel
)

// String returns the vendor name.
func (v Vendor) String() string {
	switch v {
	case NVIDIA:
		return "NVIDIA"
	case AMD:
		return "AMD"
	case Intel:
		return "Intel"
	default:
		return fmt.Sprintf("Vendor(%d)", int(v))
	}
}

// DeviceClass is the Lumos HeterogSys role a device plays inside a
// heterogeneous fleet: latency-oriented serial cores (CPUs),
// throughput cores (GPUs), or fixed-function/reconfigurable
// accelerators. The fleet budget model (see Fleet) splits a shared
// power envelope across the classes.
type DeviceClass int

const (
	// ClassThroughput marks wide throughput devices (GPUs). It is the
	// zero value, so plain GPU specs need no explicit class.
	ClassThroughput DeviceClass = iota
	// ClassSerial marks latency-oriented serial-core devices (CPUs).
	ClassSerial
	// ClassAccelerator marks ASIC/FPGA-style accelerators.
	ClassAccelerator
)

// String returns the class name.
func (c DeviceClass) String() string {
	switch c {
	case ClassThroughput:
		return "throughput"
	case ClassSerial:
		return "serial"
	case ClassAccelerator:
		return "accelerator"
	default:
		return fmt.Sprintf("DeviceClass(%d)", int(c))
	}
}

// Spec describes a compute device: its DVFS capabilities and the
// parameters of the analytic performance/power model. All power figures
// are in watts, frequencies in MHz, bandwidth in bytes/second.
type Spec struct {
	Name   string
	Vendor Vendor

	// Class is the device's role in a heterogeneous fleet (GPUs are
	// throughput devices, CPUs serial, FPGAs/ASICs accelerators).
	Class DeviceClass

	// AreaMM2 is the die area in mm², the second axis of the Lumos-style
	// fleet budget (zero: unspecified, exempt from area accounting).
	AreaMM2 float64

	// MemFreqMHz is the (fixed) HBM memory frequency. The paper notes
	// that for HBM devices the memory frequency cannot be scaled.
	MemFreqMHz int

	// CoreFreqsMHz lists every supported core (SM) frequency in
	// ascending order, mirroring nvmlDeviceGetSupportedGraphicsClocks /
	// rocm_smi DPM states.
	CoreFreqsMHz []int

	// DefaultCoreMHz is the application clock the driver selects by
	// default. Zero means the device has no default configuration and
	// auto-scales with the workload (AMD MI100 behaviour, §2.1); the
	// effective performance baseline is then the maximum frequency.
	DefaultCoreMHz int

	// --- Performance model ---

	// SMs is the number of streaming multiprocessors (compute units).
	SMs int
	// LanesPerSM is the number of FP32 lanes per SM.
	LanesPerSM int
	// MemBWBytes is the peak DRAM bandwidth in bytes/second.
	MemBWBytes float64
	// BWKneeFrac is the fraction of the maximum core frequency above
	// which the device can saturate DRAM bandwidth. Below the knee,
	// effective bandwidth degrades (not enough in-flight requests).
	BWKneeFrac float64
	// LaunchOverheadSec is the fixed per-kernel launch latency.
	LaunchOverheadSec float64
	// ClockSetOverheadSec is the cost of one application-clock change
	// through the management library (the paper reports this becomes
	// significant as the number of submitted kernels grows, §4.4).
	ClockSetOverheadSec float64

	// --- Power model ---

	// IdlePowerW is the board power when no kernel is resident.
	IdlePowerW float64
	// TDPWatts is the board power limit; the model throttles above it.
	TDPWatts float64
	// VMinVolts / VMaxVolts give the core voltage at the minimum and
	// maximum core frequency; voltage is interpolated linearly.
	VMinVolts, VMaxVolts float64
	// VFloorFrac is the fraction of the maximum core frequency below
	// which the voltage regulator can no longer lower the voltage (the
	// near-threshold floor): frequencies below the floor run at the
	// floor voltage, so they cost the same energy per operation while
	// taking longer — the reason the lowest clocks are always
	// energy-inefficient (§2.2). Zero disables the floor.
	VFloorFrac float64
	// CoreDynCoeff scales dynamic core power: P = c * f[GHz] * V^2 * a.
	CoreDynCoeff float64
	// MemDynCoeff scales memory-subsystem power by bandwidth utilisation.
	MemDynCoeff float64
	// LeakCoeff scales leakage power by V^2.
	LeakCoeff float64
	// BaseActivity is the fraction of core dynamic power drawn even by
	// fully memory-bound kernels (instruction issue, LSU, caches).
	BaseActivity float64
}

// Validate reports an error when the spec is internally inconsistent.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("hw: spec has empty name")
	}
	// Every comparison with NaN is false, so the range checks below
	// would pass a NaN; refuse a NaN or infinite parameter first.
	for _, v := range []float64{s.AreaMM2, s.MemBWBytes, s.BWKneeFrac, s.LaunchOverheadSec,
		s.ClockSetOverheadSec, s.IdlePowerW, s.TDPWatts, s.VMinVolts, s.VMaxVolts, s.VFloorFrac,
		s.CoreDynCoeff, s.MemDynCoeff, s.LeakCoeff, s.BaseActivity} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("hw: spec %s has a non-finite parameter %v", s.Name, v)
		}
	}
	// The voltage model interpolates between the lowest and highest
	// clock, so the table needs two distinct entries.
	if len(s.CoreFreqsMHz) < 2 {
		return fmt.Errorf("hw: spec %s has %d core frequencies, needs at least two", s.Name, len(s.CoreFreqsMHz))
	}
	if s.CoreFreqsMHz[0] <= 0 {
		return fmt.Errorf("hw: spec %s has non-positive core frequency %d MHz", s.Name, s.CoreFreqsMHz[0])
	}
	for i := 1; i < len(s.CoreFreqsMHz); i++ {
		if s.CoreFreqsMHz[i] <= s.CoreFreqsMHz[i-1] {
			return fmt.Errorf("hw: spec %s core frequencies not strictly ascending at index %d", s.Name, i)
		}
	}
	if s.DefaultCoreMHz != 0 && !s.SupportsCoreFreq(s.DefaultCoreMHz) {
		return fmt.Errorf("hw: spec %s default core frequency %d MHz not in table", s.Name, s.DefaultCoreMHz)
	}
	if s.SMs <= 0 || s.LanesPerSM <= 0 || s.MemBWBytes <= 0 {
		return fmt.Errorf("hw: spec %s has non-positive performance parameters", s.Name)
	}
	if s.LaunchOverheadSec < 0 || s.ClockSetOverheadSec < 0 || s.IdlePowerW < 0 {
		return fmt.Errorf("hw: spec %s has a negative overhead or idle power", s.Name)
	}
	if s.CoreDynCoeff < 0 || s.MemDynCoeff < 0 || s.LeakCoeff < 0 {
		return fmt.Errorf("hw: spec %s has a negative power coefficient", s.Name)
	}
	if s.TDPWatts <= s.IdlePowerW {
		return fmt.Errorf("hw: spec %s TDP must exceed idle power", s.Name)
	}
	if s.VMinVolts <= 0 || s.VMaxVolts < s.VMinVolts {
		return fmt.Errorf("hw: spec %s has invalid voltage range", s.Name)
	}
	if s.BWKneeFrac <= 0 || s.BWKneeFrac >= 1 {
		return fmt.Errorf("hw: spec %s BWKneeFrac must be in (0,1)", s.Name)
	}
	if s.BaseActivity < 0 || s.BaseActivity > 1 {
		return fmt.Errorf("hw: spec %s BaseActivity must be in [0,1]", s.Name)
	}
	if s.VFloorFrac < 0 || s.VFloorFrac >= 1 {
		return fmt.Errorf("hw: spec %s VFloorFrac must be in [0,1)", s.Name)
	}
	if s.AreaMM2 < 0 {
		return fmt.Errorf("hw: spec %s has negative die area", s.Name)
	}
	switch s.Class {
	case ClassThroughput, ClassSerial, ClassAccelerator:
	default:
		return fmt.Errorf("hw: spec %s has unknown device class %d", s.Name, int(s.Class))
	}
	return nil
}

// MinCoreMHz returns the lowest supported core frequency.
func (s *Spec) MinCoreMHz() int { return s.CoreFreqsMHz[0] }

// MaxCoreMHz returns the highest supported core frequency.
func (s *Spec) MaxCoreMHz() int { return s.CoreFreqsMHz[len(s.CoreFreqsMHz)-1] }

// BaselineCoreMHz returns the frequency used as the evaluation baseline:
// the default application clock, or the maximum frequency for devices
// that auto-scale (no default configuration).
func (s *Spec) BaselineCoreMHz() int {
	if s.DefaultCoreMHz != 0 {
		return s.DefaultCoreMHz
	}
	return s.MaxCoreMHz()
}

// SupportsCoreFreq reports whether mhz is an entry of the clock table.
func (s *Spec) SupportsCoreFreq(mhz int) bool {
	lo, hi := 0, len(s.CoreFreqsMHz)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s.CoreFreqsMHz[mid] == mhz:
			return true
		case s.CoreFreqsMHz[mid] < mhz:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// NearestCoreFreq returns the supported frequency closest to mhz,
// preferring the lower one on ties (conservative for power).
func (s *Spec) NearestCoreFreq(mhz int) int {
	best := s.CoreFreqsMHz[0]
	bestD := abs(mhz - best)
	for _, f := range s.CoreFreqsMHz[1:] {
		if d := abs(mhz - f); d < bestD {
			best, bestD = f, d
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// nvidiaClockTable generates an NVML-style supported-clock list with n
// entries from min to max MHz. NVML tables use alternating ~7/8 MHz
// steps; the generator distributes the residue evenly and guarantees the
// exact endpoints and count.
func nvidiaClockTable(minMHz, maxMHz, n int) []int {
	if n < 2 {
		panic("hw: clock table needs at least two entries")
	}
	span := maxMHz - minMHz
	steps := n - 1
	base := span / steps
	extra := span - base*steps // number of steps that get +1 groups
	freqs := make([]int, 0, n)
	acc := minMHz
	freqs = append(freqs, acc)
	carried := 0
	for i := 0; i < steps; i++ {
		step := base
		carried += extra
		if carried >= steps {
			carried -= steps
			step++
		}
		acc += step
		freqs = append(freqs, acc)
	}
	if freqs[len(freqs)-1] != maxMHz {
		panic("hw: clock table generation failed to reach max frequency")
	}
	return freqs
}

// V100 returns the spec of an NVIDIA Tesla V100 SXM2 (16 GB):
// 196 core frequencies from 135 to 1530 MHz, HBM2 fixed at 877 MHz,
// default application clock 1312 MHz (the paper's baseline, Fig. 2).
func V100() *Spec {
	s := &Spec{
		Name:                "NVIDIA V100",
		Vendor:              NVIDIA,
		AreaMM2:             815,
		MemFreqMHz:          877,
		CoreFreqsMHz:        nvidiaClockTable(135, 1530, 196),
		DefaultCoreMHz:      0, // fixed below to an exact table entry
		SMs:                 80,
		LanesPerSM:          64,
		MemBWBytes:          900e9,
		BWKneeFrac:          0.55,
		LaunchOverheadSec:   8e-6,
		ClockSetOverheadSec: 1.5e-4,
		IdlePowerW:          32,
		TDPWatts:            300,
		VMinVolts:           0.712,
		VMaxVolts:           1.082,
		VFloorFrac:          0.50,
		CoreDynCoeff:        138,
		MemDynCoeff:         52,
		LeakCoeff:           21,
		BaseActivity:        0.34,
	}
	s.DefaultCoreMHz = s.NearestCoreFreq(1312)
	mustValidate(s)
	return s
}

// A100 returns the spec of an NVIDIA A100 SXM4 (40 GB): 81 core
// frequencies from 210 to 1410 MHz, HBM2e fixed at 1215 MHz.
func A100() *Spec {
	s := &Spec{
		Name:                "NVIDIA A100",
		Vendor:              NVIDIA,
		AreaMM2:             826,
		MemFreqMHz:          1215,
		CoreFreqsMHz:        nvidiaClockTable(210, 1410, 81),
		DefaultCoreMHz:      1410,
		SMs:                 108,
		LanesPerSM:          64,
		MemBWBytes:          1555e9,
		BWKneeFrac:          0.52,
		LaunchOverheadSec:   7e-6,
		ClockSetOverheadSec: 1.5e-4,
		IdlePowerW:          42,
		TDPWatts:            400,
		VMinVolts:           0.70,
		VMaxVolts:           1.06,
		VFloorFrac:          0.50,
		CoreDynCoeff:        212,
		MemDynCoeff:         68,
		LeakCoeff:           28,
		BaseActivity:        0.34,
	}
	mustValidate(s)
	return s
}

// MI100 returns the spec of an AMD Instinct MI100: 16 DPM core states
// from 300 to 1502 MHz, HBM2 fixed at 1200 MHz. The MI100 exposes no
// default application clock (DefaultCoreMHz == 0): the driver
// auto-scales with the workload, and the paper observes that this
// auto/default configuration always delivers the best performance.
func MI100() *Spec {
	s := &Spec{
		Name:       "AMD MI100",
		Vendor:     AMD,
		AreaMM2:    750,
		MemFreqMHz: 1200,
		CoreFreqsMHz: []int{
			300, 380, 460, 540, 620, 700, 780, 860,
			940, 1020, 1100, 1180, 1260, 1340, 1420, 1502,
		},
		DefaultCoreMHz:      0,
		SMs:                 120,
		LanesPerSM:          64,
		MemBWBytes:          1229e9,
		BWKneeFrac:          0.78,
		LaunchOverheadSec:   10e-6,
		ClockSetOverheadSec: 2e-4,
		IdlePowerW:          37,
		TDPWatts:            290,
		VMinVolts:           0.73,
		VMaxVolts:           1.05,
		VFloorFrac:          0.55,
		CoreDynCoeff:        128,
		MemDynCoeff:         48,
		LeakCoeff:           24,
		BaseActivity:        0.42,
	}
	mustValidate(s)
	return s
}

// Xeon8160 returns the spec of an Intel Xeon Platinum 8160 package: 26
// P-states from 1000 to 3500 MHz (turbo range), DDR4-2666 memory. The
// same roofline/DVFS model applies with CPU-scale parameters, which is
// what makes the SYnergy binding layer portable beyond GPUs (§2.1).
func Xeon8160() *Spec {
	freqs := make([]int, 0, 26)
	for f := 1000; f <= 3500; f += 100 {
		freqs = append(freqs, f)
	}
	s := &Spec{
		Name:                "Intel Xeon 8160",
		Vendor:              Intel,
		Class:               ClassSerial,
		AreaMM2:             694,
		MemFreqMHz:          2666,
		CoreFreqsMHz:        freqs,
		DefaultCoreMHz:      2100, // base clock (turbo governed separately)
		SMs:                 24,   // cores
		LanesPerSM:          16,   // AVX-512 fp32 lanes
		MemBWBytes:          128e9,
		BWKneeFrac:          0.35,
		LaunchOverheadSec:   2e-6,
		ClockSetOverheadSec: 5e-5, // cpufreq writes are cheap
		IdlePowerW:          35,
		TDPWatts:            150,
		VMinVolts:           0.70,
		VMaxVolts:           1.20,
		VFloorFrac:          0.35,
		CoreDynCoeff:        28,
		MemDynCoeff:         18,
		LeakCoeff:           14,
		BaseActivity:        0.30,
	}
	mustValidate(s)
	return s
}

// H100 returns the spec of an NVIDIA H100 SXM5 (80 GB), the newer GPU
// generation of the fleet model: 119 core frequencies from 210 to
// 1980 MHz, HBM3 fixed at 2619 MHz, default application clock at the
// maximum boost state.
func H100() *Spec {
	s := &Spec{
		Name:                "NVIDIA H100",
		Vendor:              NVIDIA,
		AreaMM2:             814,
		MemFreqMHz:          2619,
		CoreFreqsMHz:        nvidiaClockTable(210, 1980, 119),
		DefaultCoreMHz:      1980,
		SMs:                 132,
		LanesPerSM:          128,
		MemBWBytes:          3350e9,
		BWKneeFrac:          0.48,
		LaunchOverheadSec:   6e-6,
		ClockSetOverheadSec: 1.5e-4,
		IdlePowerW:          72,
		TDPWatts:            700,
		VMinVolts:           0.68,
		VMaxVolts:           1.05,
		VFloorFrac:          0.50,
		CoreDynCoeff:        230,
		MemDynCoeff:         95,
		LeakCoeff:           34,
		BaseActivity:        0.34,
	}
	mustValidate(s)
	return s
}

// Xeon8480 returns the spec of an Intel Xeon Platinum 8480+ (Sapphire
// Rapids) package: 31 P-states from 800 to 3800 MHz, DDR5-4800 memory.
// Together with the 8160 it anchors the bandwidth-bound CPU end of the
// CPU-vs-GPU portability scenarios (Reguly's SYCL study): per-core
// compute throughput grows while the memory system stays far from GPU
// bandwidth, so most streaming kernels are memory-bound on it.
func Xeon8480() *Spec {
	freqs := make([]int, 0, 31)
	for f := 800; f <= 3800; f += 100 {
		freqs = append(freqs, f)
	}
	s := &Spec{
		Name:                "Intel Xeon 8480+",
		Vendor:              Intel,
		Class:               ClassSerial,
		AreaMM2:             1510, // four compute tiles
		MemFreqMHz:          4800,
		CoreFreqsMHz:        freqs,
		DefaultCoreMHz:      2000, // base clock
		SMs:                 56,   // cores
		LanesPerSM:          16,   // AVX-512 fp32 lanes
		MemBWBytes:          307e9,
		BWKneeFrac:          0.30,
		LaunchOverheadSec:   2e-6,
		ClockSetOverheadSec: 5e-5,
		IdlePowerW:          60,
		TDPWatts:            350,
		VMinVolts:           0.65,
		VMaxVolts:           1.15,
		VFloorFrac:          0.32,
		CoreDynCoeff:        55,
		MemDynCoeff:         26,
		LeakCoeff:           22,
		BaseActivity:        0.30,
	}
	mustValidate(s)
	return s
}

// AlveoV80 returns the descriptor of an AMD (Xilinx) Alveo V80-class
// reconfigurable accelerator — the Lumos-style budgeted accelerator of
// the fleet model: a wide, slow dataflow array with a handful of fabric
// clock states, a narrow near-threshold voltage range and HBM2e. It has
// no default clock (the loaded bitstream's Fmax governs; the effective
// baseline is the top state), and it is the energy-efficiency end of
// the fleet: low clocks and voltages buy joules at the price of
// latency.
func AlveoV80() *Spec {
	s := &Spec{
		Name:       "AMD Alveo V80",
		Vendor:     AMD,
		Class:      ClassAccelerator,
		AreaMM2:    820,
		MemFreqMHz: 1600,
		CoreFreqsMHz: []int{
			200, 300, 400, 500, 600, 700, 800,
		},
		DefaultCoreMHz:      0,
		SMs:                 64, // dataflow regions
		LanesPerSM:          96, // DSP lanes per region
		MemBWBytes:          820e9,
		BWKneeFrac:          0.60,
		LaunchOverheadSec:   2e-5,
		ClockSetOverheadSec: 3e-4,
		IdlePowerW:          22,
		TDPWatts:            190,
		VMinVolts:           0.72,
		VMaxVolts:           0.88,
		VFloorFrac:          0.40,
		CoreDynCoeff:        55,
		MemDynCoeff:         22,
		LeakCoeff:           14,
		BaseActivity:        0.38,
	}
	mustValidate(s)
	return s
}

func mustValidate(s *Spec) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
}

// BuiltinSpecs returns the device catalog keyed by the short
// identifiers usable on command lines: the three devices the paper
// characterises in Fig. 1 plus the fleet-model additions (CPUs, the
// H100 generation and the Alveo accelerator).
func BuiltinSpecs() map[string]*Spec {
	return map[string]*Spec{
		"v100":     V100(),
		"a100":     A100(),
		"h100":     H100(),
		"mi100":    MI100(),
		"xeon":     Xeon8160(),
		"xeon8480": Xeon8480(),
		"alveo":    AlveoV80(),
	}
}

// BuiltinNames lists the catalog's short identifiers in sorted order.
// Command-line help and error messages derive from it, so adding a
// device to the catalog never leaves a stale hard-coded list behind.
func BuiltinNames() []string {
	m := BuiltinSpecs()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SpecByName returns a builtin spec by its short identifier.
func SpecByName(name string) (*Spec, error) {
	s, ok := BuiltinSpecs()[name]
	if !ok {
		return nil, fmt.Errorf("hw: unknown device %q (want one of %s)",
			name, strings.Join(BuiltinNames(), ", "))
	}
	return s, nil
}
