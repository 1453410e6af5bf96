// Package placement generalizes the SYnergy frequency search from
// "pick a frequency" to "pick a device AND a frequency": given a
// heterogeneous hw.Fleet (CPUs, GPU generations and accelerators under
// a shared power budget, in the Lumos HeterogSys shape), it builds the
// joint (device × frequency) candidate grid for one kernel — from the
// memoized sweep engine for ground truth, or from per-device
// model.Predictor sessions for predicted placement — filters it by the
// fleet power budget, and selects the energy-optimal configuration for
// any of the paper's targets (MAX_PERF, MIN_ENERGY, MIN_EDP, MIN_ED2P,
// ES_x, PL_x).
//
// Selection is metrics.Select — the same code metrics.Sweep.Select
// runs — over the feasible candidates, with the fleet baseline (the
// best-performing feasible device at its default clock) standing in
// for the single device's default configuration. A single-device fleet
// with no budget therefore reduces exactly — bit-identically — to
// metrics.Sweep.Select on that device's sweep, which the
// degenerate-fleet tests pin, and the joint search is the argmin over
// the brute-forced grid, which the independent enumeration-oracle test
// pins.
package placement

import (
	"errors"
	"fmt"

	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/metrics"
	"synergy/internal/model"
	"synergy/internal/sweep"
)

// Candidate is one (device, frequency) configuration of the joint grid.
type Candidate struct {
	// DeviceIdx indexes the fleet's device list; Device is that entry's
	// key. Candidates are ordered device-major (fleet order) with
	// frequencies ascending — the deterministic tie-break order.
	DeviceIdx int    `json:"device_idx"`
	Device    string `json:"device"`
	FreqMHz   int    `json:"freq_mhz"`
	// TimeSec and EnergyJ are per-item figures in the sweep engine's
	// units (ns and nJ per work-item); uniform per-item scaling leaves
	// every target selection invariant, and the same kernel at the same
	// launch size is directly comparable across devices.
	TimeSec float64 `json:"time"`
	EnergyJ float64 `json:"energy"`
	// PowerW is the hosting device's average board power at this
	// configuration; FleetPowerW adds the idle draw of every other
	// fleet device — the quantity the budget constrains.
	PowerW      float64 `json:"power_w"`
	FleetPowerW float64 `json:"fleet_power_w"`
	// Feasible reports whether FleetPowerW fits the fleet power budget.
	Feasible bool `json:"feasible"`
	// Baseline marks the device's default-clock configuration.
	Baseline bool `json:"baseline"`
}

// Grid is the joint (device × frequency) characterisation of one kernel
// on a fleet.
type Grid struct {
	Fleet  *hw.Fleet
	Kernel string
	// Candidates holds every (device, frequency) point, device-major in
	// fleet order, frequencies ascending within a device.
	Candidates []Candidate
	// feas indexes the feasible candidates in grid order and pts holds
	// their selection points, the candidate set Select searches. base
	// is the position in pts of the fleet baseline (the best-performing
	// feasible device at its default clock), -1 when no device's
	// baseline configuration is feasible under the budget.
	feas []int
	pts  []metrics.Point
	base int
}

// BuildGroundTruth assembles the grid from ground-truth frequency
// sweeps of every fleet device, all served by the memoized sweep
// engine — repeated fleet placements of the same kernel cost one sweep
// per device process-wide.
func BuildGroundTruth(eng *sweep.Engine, fleet *hw.Fleet, k *kernelir.Kernel, items int64) (*Grid, error) {
	if eng == nil || fleet == nil || k == nil {
		return nil, fmt.Errorf("placement: nil engine, fleet or kernel")
	}
	if err := fleet.Validate(); err != nil {
		return nil, err
	}
	g := &Grid{Fleet: fleet, Kernel: k.Name}
	for di, fd := range fleet.Devices {
		sw, err := eng.GroundTruth(fd.Spec, k, items)
		if err != nil {
			return nil, fmt.Errorf("placement: device %s: %w", fd.Key, err)
		}
		base := fd.Spec.BaselineCoreMHz()
		for _, p := range sw.Points {
			g.add(di, fd, p.FreqMHz, p.TimeSec, p.EnergyJ, base)
		}
	}
	g.index()
	return g, nil
}

// BuildPredicted assembles the grid from per-device prediction
// sessions: preds[i] must be a Predictor over fleet device i's spec.
// The candidates are model.Predictor.Points — the same clamped points
// Predictor.Advise selects from — so the grid keeps the sweep
// invariants at the edges of the training distribution.
func BuildPredicted(fleet *hw.Fleet, preds []*model.Predictor, v features.Vector) (*Grid, error) {
	if fleet == nil {
		return nil, fmt.Errorf("placement: nil fleet")
	}
	if err := fleet.Validate(); err != nil {
		return nil, err
	}
	if len(preds) != len(fleet.Devices) {
		return nil, fmt.Errorf("placement: %d predictors for %d fleet devices", len(preds), len(fleet.Devices))
	}
	g := &Grid{Fleet: fleet, Kernel: "predicted"}
	for di, fd := range fleet.Devices {
		p := preds[di]
		if p == nil {
			return nil, fmt.Errorf("placement: nil predictor for device %s", fd.Key)
		}
		if got := p.Models().Spec.Name; got != fd.Spec.Name {
			return nil, fmt.Errorf("placement: predictor for %q bound to fleet device %s (%s)",
				got, fd.Key, fd.Spec.Name)
		}
		pts, err := p.Points(v)
		if err != nil {
			return nil, fmt.Errorf("placement: device %s: %w", fd.Key, err)
		}
		base := fd.Spec.BaselineCoreMHz()
		for _, pt := range pts {
			g.add(di, fd, pt.FreqMHz, pt.TimeSec, pt.EnergyJ, base)
		}
	}
	g.index()
	return g, nil
}

// add appends one candidate with its power accounting.
func (g *Grid) add(di int, fd hw.FleetDevice, freqMHz int, timeSec, energyJ float64, baseMHz int) {
	pw := energyJ / timeSec // per-item scaling cancels: nJ/ns = W
	g.Candidates = append(g.Candidates, Candidate{
		DeviceIdx:   di,
		Device:      fd.Key,
		FreqMHz:     freqMHz,
		TimeSec:     timeSec,
		EnergyJ:     energyJ,
		PowerW:      pw,
		FleetPowerW: g.Fleet.FleetPowerW(di, pw),
		Feasible:    g.Fleet.Feasible(di, pw),
		Baseline:    freqMHz == baseMHz,
	})
}

// index lists the feasible candidates as selection points, in grid
// order, and picks the fleet baseline among them: the best-performing
// feasible device at its default clock (what a performance-oriented
// scheduler would run with no energy awareness). Strict-< argmin over
// the device-major order keeps ties deterministic: earlier fleet
// device, then lower frequency.
func (g *Grid) index() {
	g.feas = make([]int, 0, len(g.Candidates))
	g.pts = make([]metrics.Point, 0, len(g.Candidates))
	g.base = -1
	for i, c := range g.Candidates {
		if !c.Feasible {
			continue
		}
		if c.Baseline && (g.base < 0 || c.TimeSec < g.pts[g.base].TimeSec) {
			g.base = len(g.pts)
		}
		g.feas = append(g.feas, i)
		g.pts = append(g.pts, metrics.Point{FreqMHz: c.FreqMHz, TimeSec: c.TimeSec, EnergyJ: c.EnergyJ})
	}
}

// BaselineCandidate returns the fleet baseline configuration the ES/PL
// figures are relative to, or an error when no device's default-clock
// configuration fits the power budget.
func (g *Grid) BaselineCandidate() (Candidate, error) {
	if g.base < 0 {
		return Candidate{}, fmt.Errorf(
			"placement: no device baseline configuration is feasible under the %s fleet power budget",
			g.Fleet.Budget)
	}
	return g.Candidates[g.feas[g.base]], nil
}

// FeasibleCount returns how many grid candidates fit the power budget.
func (g *Grid) FeasibleCount() int { return len(g.feas) }

// Placement is one joint (device, frequency) recommendation.
type Placement struct {
	Target metrics.Target `json:"-"`
	// TargetName is the paper notation of the target (for JSON output).
	TargetName string `json:"target"`
	Candidate
	// BaselineDevice/BaselineFreqMHz identify the fleet baseline the
	// ES/PL figures are relative to ("" when the budget leaves no
	// baseline feasible — possible only for targets that need none).
	BaselineDevice  string `json:"baseline_device,omitempty"`
	BaselineFreqMHz int    `json:"baseline_freq_mhz,omitempty"`
	// ESPct and PLPct are the energy saving and performance loss of the
	// chosen configuration relative to the fleet baseline, in percent
	// (zero when no baseline is feasible).
	ESPct float64 `json:"es_pct"`
	PLPct float64 `json:"pl_pct"`
}

// Select runs the joint placement search for one target: metrics.Select
// over the feasible candidates in grid order, anchored at the fleet
// baseline. The result is exactly the argmin over the feasible
// (device × frequency) grid under the metrics-package target semantics,
// with deterministic tie-breaking (earlier fleet device, then lower
// frequency).
func (g *Grid) Select(t metrics.Target) (Placement, error) {
	if err := t.Validate(); err != nil {
		return Placement{}, err
	}
	if len(g.pts) == 0 {
		return Placement{}, fmt.Errorf(
			"placement: no (device, frequency) configuration of fleet %s fits the %s power budget",
			g.Fleet.Name, g.Fleet.Budget)
	}
	chosen, err := metrics.Select(g.pts, g.base, t)
	if errors.Is(err, metrics.ErrNoBaseline) {
		_, err = g.BaselineCandidate()
	}
	if err != nil {
		return Placement{}, err
	}
	p := Placement{Target: t, TargetName: t.String(), Candidate: g.Candidates[g.feas[chosen]]}
	if g.base >= 0 {
		def := g.Candidates[g.feas[g.base]]
		p.BaselineDevice = def.Device
		p.BaselineFreqMHz = def.FreqMHz
		p.ESPct = metrics.EnergySavingPct(g.pts[g.base], g.pts[chosen])
		p.PLPct = metrics.PerfLossPct(g.pts[g.base], g.pts[chosen])
	}
	return p, nil
}
