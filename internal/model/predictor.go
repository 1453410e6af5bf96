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
// curve and the selection points) are allocated once and reused, and
// the models are driven through their batch path, so neither Curve,
// Points nor Advise allocates per call. Each runs only the models its
// result needs: Curve all four, Points Time and Energy, and Advise the
// ones its target reads. A Predictor is not safe for concurrent use —
// the serve daemon pools them.
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
// the next Curve, Points or Advise call and must not be retained. The
// values are bit-identical to Models.PredictCurve.
func (p *Predictor) Curve(v features.Vector) []PredictedPoint {
	m := p.m
	sc := p.fillRows(v)
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

// fillRows writes the model input of every supported frequency into the
// session's rows and returns the kernel's scale (kernelScale).
func (p *Predictor) fillRows(v features.Vector) float64 {
	for i, f := range p.m.Spec.CoreFreqsMHz {
		featuresRowInto(p.rows[i], v, f)
	}
	return kernelScale(v)
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
	// Predictions is the number of model evaluations the search made:
	// one per model per clock it was run at.
	Predictions int
}

// Points runs the Time and Energy models at every supported frequency
// and returns the predictions as selection candidates: per-item time in
// TimeSec and energy in EnergyJ. Predicted values can go slightly
// non-positive at the edges of the training distribution, so finite
// non-positive values are clamped to a positive floor; a point that
// still fails metrics.Point.Check (NaN or infinite) is an error. The
// returned slice is the session's internal buffer, valid until the next
// Curve, Points or Advise call.
func (p *Predictor) Points(v features.Vector) ([]metrics.Point, error) {
	return p.points(p.fillRows(v))
}

// points is Points over rows fillRows has already written; sc is the
// kernel's scale.
func (p *Predictor) points(sc float64) ([]metrics.Point, error) {
	ml.PredictAllInto(p.m.Time, p.yT, p.rows)
	ml.PredictAllInto(p.m.Energy, p.yE, p.rows)
	for i := range p.pts {
		q, err := p.point(i, sc)
		if err != nil {
			return nil, err
		}
		p.pts[i] = q
	}
	return p.pts, nil
}

// point is the selection candidate at clock index i from the session's
// time and energy predictions there, scaled back to the kernel by sc
// and clamped; it is an error unless it passes metrics.Point.Check.
func (p *Predictor) point(i int, sc float64) (metrics.Point, error) {
	q := metrics.Point{
		FreqMHz: p.m.Spec.CoreFreqsMHz[i],
		TimeSec: clampPositive(p.yT[i] * sc),
		EnergyJ: clampPositive(p.yE[i] * sc),
	}
	return q, q.Check()
}

// clampPositive floors finite non-positive predictions at 1e-9; -Inf
// stays as it is, for metrics.Point.Check to refuse.
func clampPositive(x float64) float64 {
	if x <= 0 && !math.IsInf(x, -1) {
		return 1e-9
	}
	return x
}

// argminTable runs r over every supported frequency into y and returns
// the index of the first minimum of its predictions, scaled back to the
// kernel by sc and clamped as in Points. Each value is first held to
// metrics.Point.Check's rule (positive and finite) by checking it as
// both coordinates of a point.
func (p *Predictor) argminTable(r ml.Regressor, y []float64, sc float64) (int, error) {
	ml.PredictAllInto(r, y, p.rows)
	for i, f := range p.m.Spec.CoreFreqsMHz {
		x := clampPositive(y[i] * sc)
		if err := (metrics.Point{FreqMHz: f, TimeSec: x, EnergyJ: x}).Check(); err != nil {
			return 0, err
		}
	}
	return metrics.Argmin(len(y), func(i int) float64 { return clampPositive(y[i] * sc) }), nil
}

// Advise runs the §6.2 frequency search for one kernel and target and
// reports the predicted energy-saving / performance-loss tradeoff of
// the chosen configuration. It runs over the clock table only the
// models its target reads:
//
//   - ES_x and PL_x: Time and Energy, through Points, selected by
//     metrics.Select;
//   - MAX_PERF: Time alone, and MIN_ENERGY: Energy alone, each the
//     metrics.Argmin of its clamped and checked predictions;
//   - MIN_EDP and MIN_ED2P: their dedicated product model alone, the
//     metrics.Argmin of its predictions.
//
// Time and energy the search did not need are then predicted only at
// the chosen and baseline clocks, for the ES/PL report; those two
// points are clamped and must pass metrics.Point.Check too. Every value
// is the one the four-model Curve would give, so the advice is
// bit-identical to selecting over the full curve. The clock table is
// strictly ascending (hw.Spec.Validate), so the points are already in
// sweep order. Advise refuses predictions whose ES or PL figure is not
// finite.
func (p *Predictor) Advise(v features.Vector, target metrics.Target) (Advice, error) {
	if err := target.Validate(); err != nil {
		return Advice{}, err
	}
	m, n := p.m, len(p.rows)
	var i int
	var err error
	// preds counts model evaluations: one model over the table unless
	// the target reads two. needT and needE say whether Time and Energy
	// are still to be predicted at the chosen and baseline clocks.
	preds := n
	needT, needE := true, true
	sc := p.fillRows(v)
	switch target.Kind {
	case metrics.KindMaxPerf:
		i, err = p.argminTable(m.Time, p.yT, sc)
		needT = false
	case metrics.KindMinEnergy:
		i, err = p.argminTable(m.Energy, p.yE, sc)
		needE = false
	case metrics.KindMinEDP:
		ml.PredictAllInto(m.EDP, p.yEDP, p.rows)
		i = metrics.Argmin(n, func(j int) float64 { return p.yEDP[j] * sc * sc })
	case metrics.KindMinED2P:
		ml.PredictAllInto(m.ED2P, p.yED2P, p.rows)
		i = metrics.Argmin(n, func(j int) float64 { return math.Exp(p.yED2P[j]) * sc * sc * sc })
	default:
		var pts []metrics.Point
		if pts, err = p.points(sc); err == nil {
			i, err = metrics.Select(pts, p.base, target)
		}
		needT, needE = false, false
		preds = 2 * n
	}
	if err != nil {
		return Advice{}, err
	}
	clocks := []int{i, p.base}
	if i == p.base {
		clocks = clocks[:1]
	}
	for _, j := range clocks {
		if needT {
			p.yT[j] = m.Time.Predict(p.rows[j])
			preds++
		}
		if needE {
			p.yE[j] = m.Energy.Predict(p.rows[j])
			preds++
		}
	}
	def, err := p.point(p.base, sc)
	if err != nil {
		return Advice{}, err
	}
	chosen, err := p.point(i, sc)
	if err != nil {
		return Advice{}, err
	}
	es := metrics.EnergySavingPct(def, chosen)
	pl := metrics.PerfLossPct(def, chosen)
	if math.IsInf(es, 0) || math.IsNaN(es) || math.IsInf(pl, 0) || math.IsNaN(pl) {
		return Advice{}, fmt.Errorf("model: predicted tradeoff at %d MHz is out of range (ES %g%%, PL %g%%)",
			chosen.FreqMHz, es, pl)
	}
	return Advice{
		Target:      target,
		FreqMHz:     chosen.FreqMHz,
		BaselineMHz: def.FreqMHz,
		TimeNs:      p.yT[i] * sc,
		EnergyNanoJ: p.yE[i] * sc,
		ESPct:       es,
		PLPct:       pl,
		Predictions: preds,
	}, nil
}
