package model

import (
	"fmt"
	"math"
	"sort"

	"synergy/internal/features"
	"synergy/internal/metrics"
	"synergy/internal/ml"
)

// Predictor is a reusable prediction session over one Models bundle:
// all scratch buffers (feature rows, per-model outputs, the predicted
// curve and the selection points) are allocated once and reused, and the
// four models are driven through their batch path, so evaluating the
// whole frequency curve performs no per-call allocations. A Predictor
// is not safe for concurrent use — the serve daemon pools them.
type Predictor struct {
	m     *Models
	rows  [][]float64
	back  []float64
	yT    []float64
	yE    []float64
	yEDP  []float64
	yED2P []float64
	curve []PredictedPoint
	pts   []metrics.Point
	// base indexes the baseline clock in the (ascending) clock table.
	base int
}

// predictor builds the scratch without checking fitted state (the
// legacy PredictCurve path keeps its error-free signature).
func (m *Models) predictor() *Predictor {
	n := len(m.Spec.CoreFreqsMHz)
	p := &Predictor{
		m:     m,
		rows:  make([][]float64, n),
		back:  make([]float64, n*rowLen),
		yT:    make([]float64, n),
		yE:    make([]float64, n),
		yEDP:  make([]float64, n),
		yED2P: make([]float64, n),
		curve: make([]PredictedPoint, n),
		pts:   make([]metrics.Point, n),
		base:  sort.SearchInts(m.Spec.CoreFreqsMHz, m.Spec.BaselineCoreMHz()),
	}
	for i := range p.rows {
		p.rows[i] = p.back[i*rowLen : (i+1)*rowLen : (i+1)*rowLen]
	}
	return p
}

// NewPredictor validates the bundle (Models.Check) and builds a
// prediction session for it.
func (m *Models) NewPredictor() (*Predictor, error) {
	if err := m.Check(); err != nil {
		return nil, err
	}
	return m.predictor(), nil
}

// Models returns the bundle the session predicts with.
func (p *Predictor) Models() *Models { return p.m }

// Curve evaluates the four models at every supported frequency. The
// returned slice is the session's internal buffer: it is valid until
// the next Curve or Advise call and must not be retained. The values
// are bit-identical to Models.PredictCurve.
func (p *Predictor) Curve(v features.Vector) []PredictedPoint {
	m := p.m
	sc := kernelScale(v)
	for i, f := range m.Spec.CoreFreqsMHz {
		featuresRowInto(p.rows[i], v, f)
	}
	ml.PredictAllInto(m.Time, p.yT, p.rows)
	ml.PredictAllInto(m.Energy, p.yE, p.rows)
	ml.PredictAllInto(m.EDP, p.yEDP, p.rows)
	ml.PredictAllInto(m.ED2P, p.yED2P, p.rows)
	for i, f := range m.Spec.CoreFreqsMHz {
		p.curve[i] = PredictedPoint{
			FreqMHz:       f,
			TimeNs:        p.yT[i] * sc,
			EnergyNanoJ:   p.yE[i] * sc,
			EDPPred:       p.yEDP[i] * sc * sc,
			ED2PPredicted: math.Exp(p.yED2P[i]) * sc * sc * sc,
		}
	}
	return p.curve
}

// Advice is one frequency recommendation: the chosen configuration and
// the model's view of what it buys, in the paper's ES/PL terms.
type Advice struct {
	// Target is the energy target the advice optimises.
	Target metrics.Target
	// FreqMHz is the recommended core frequency.
	FreqMHz int
	// BaselineMHz is the device's default core clock the ES/PL figures
	// are relative to.
	BaselineMHz int
	// TimeNs and EnergyNanoJ are the predicted per-work-item time and
	// energy at FreqMHz.
	TimeNs, EnergyNanoJ float64
	// ESPct and PLPct are the predicted energy saving and performance
	// loss at FreqMHz relative to the baseline configuration (percent,
	// from the predicted curve).
	ESPct, PLPct float64
}

// Points evaluates the predicted curve (as Curve does) and returns it as
// selection candidates: per-item time in TimeSec and energy in EnergyJ.
// Predicted values can go slightly non-positive at the edges of the
// training distribution, so finite non-positive values are clamped to
// a positive floor; a point that still fails metrics.Point.Check (NaN
// or infinite) is an error. The returned slice is the session's
// internal buffer, valid until the next Curve, Points or Advise call.
func (p *Predictor) Points(v features.Vector) ([]metrics.Point, error) {
	for i, pt := range p.Curve(v) {
		q := metrics.Point{FreqMHz: pt.FreqMHz, TimeSec: clampPositive(pt.TimeNs), EnergyJ: clampPositive(pt.EnergyNanoJ)}
		if err := q.Check(); err != nil {
			return nil, err
		}
		p.pts[i] = q
	}
	return p.pts, nil
}

// clampPositive floors finite non-positive predictions at 1e-9; -Inf
// stays as it is, for metrics.Point.Check to refuse.
func clampPositive(x float64) float64 {
	if x <= 0 && !math.IsInf(x, -1) {
		return 1e-9
	}
	return x
}

// Advise runs the full §6.2 frequency search for one kernel and target
// and reports the predicted energy-saving / performance-loss tradeoff
// of the chosen configuration. MIN_EDP and MIN_ED2P take the argmin of
// their dedicated product models; every other target is selected from
// the predicted time/energy points by metrics.Select. The clock table
// is strictly ascending (hw.Spec.Validate), so the points are already
// in sweep order. Advise refuses predictions whose ES or PL figure is
// not finite.
func (p *Predictor) Advise(v features.Vector, target metrics.Target) (Advice, error) {
	if err := target.Validate(); err != nil {
		return Advice{}, err
	}
	pts, err := p.Points(v)
	if err != nil {
		return Advice{}, err
	}
	var i int
	switch target.Kind {
	case metrics.KindMinEDP:
		i = metrics.Argmin(len(p.curve), func(j int) float64 { return p.curve[j].EDPPred })
	case metrics.KindMinED2P:
		i = metrics.Argmin(len(p.curve), func(j int) float64 { return p.curve[j].ED2PPredicted })
	default:
		if i, err = metrics.Select(pts, p.base, target); err != nil {
			return Advice{}, err
		}
	}
	es := metrics.EnergySavingPct(pts[p.base], pts[i])
	pl := metrics.PerfLossPct(pts[p.base], pts[i])
	if math.IsInf(es, 0) || math.IsNaN(es) || math.IsInf(pl, 0) || math.IsNaN(pl) {
		return Advice{}, fmt.Errorf("model: predicted tradeoff at %d MHz is out of range (ES %g%%, PL %g%%)",
			pts[i].FreqMHz, es, pl)
	}
	return Advice{
		Target:      target,
		FreqMHz:     pts[i].FreqMHz,
		BaselineMHz: pts[p.base].FreqMHz,
		TimeNs:      p.curve[i].TimeNs,
		EnergyNanoJ: p.curve[i].EnergyNanoJ,
		ESPct:       es,
		PLPct:       pl,
	}, nil
}
