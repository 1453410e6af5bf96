// Package metrics implements the energy metrics of §5: the classic
// energy-delay products (EDP, ED2P), the paper's new energy-saving
// (ES_x) and performance-loss (PL_x) tradeoff metrics, Pareto fronts
// over frequency sweeps, and Select — the one implementation of the
// target definitions, shared by ground-truth sweeps, fleet placement
// and the model's frequency search.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// TargetKind enumerates the energy-target families.
type TargetKind int

const (
	// KindMaxPerf selects the best-performing configuration.
	KindMaxPerf TargetKind = iota
	// KindMinEnergy selects the lowest-energy configuration.
	KindMinEnergy
	// KindMinEDP minimises energy × time.
	KindMinEDP
	// KindMinED2P minimises energy × time².
	KindMinED2P
	// KindES selects the best-performing configuration achieving x% of
	// the potential energy savings (baseline → minimum energy).
	KindES
	// KindPL selects the most energy-efficient configuration within x%
	// of the potential performance loss (baseline → min-energy config).
	KindPL
)

// Target is a user-selectable energy target for a kernel (§4.3, §5).
type Target struct {
	Kind TargetKind
	// X is the percentage parameter of ES_x / PL_x (0–100].
	X float64
}

// The fixed targets.
var (
	MaxPerf   = Target{Kind: KindMaxPerf}
	MinEnergy = Target{Kind: KindMinEnergy}
	MinEDP    = Target{Kind: KindMinEDP}
	MinED2P   = Target{Kind: KindMinED2P}
)

// ES returns the energy-saving target ES_x.
func ES(x float64) Target { return Target{Kind: KindES, X: x} }

// PL returns the performance-loss target PL_x.
func PL(x float64) Target { return Target{Kind: KindPL, X: x} }

// String renders the target in the paper's notation.
func (t Target) String() string {
	switch t.Kind {
	case KindMaxPerf:
		return "MAX_PERF"
	case KindMinEnergy:
		return "MIN_ENERGY"
	case KindMinEDP:
		return "MIN_EDP"
	case KindMinED2P:
		return "MIN_ED2P"
	case KindES:
		return fmt.Sprintf("ES_%g", t.X)
	case KindPL:
		return fmt.Sprintf("PL_%g", t.X)
	default:
		return fmt.Sprintf("Target(%d)", int(t.Kind))
	}
}

// Validate reports an error for ill-formed targets.
func (t Target) Validate() error {
	switch t.Kind {
	case KindMaxPerf, KindMinEnergy, KindMinEDP, KindMinED2P:
		return nil
	case KindES, KindPL:
		if t.X <= 0 || t.X > 100 || math.IsNaN(t.X) {
			return fmt.Errorf("metrics: %s: percentage must be in (0, 100]", t)
		}
		return nil
	default:
		return fmt.Errorf("metrics: unknown target kind %d", int(t.Kind))
	}
}

// ParseTarget parses the paper's notation: MAX_PERF, MIN_ENERGY,
// MIN_EDP, MIN_ED2P, ES_25, PL_50, ...
func ParseTarget(s string) (Target, error) {
	switch s {
	case "MAX_PERF":
		return MaxPerf, nil
	case "MIN_ENERGY":
		return MinEnergy, nil
	case "MIN_EDP":
		return MinEDP, nil
	case "MIN_ED2P":
		return MinED2P, nil
	}
	var x float64
	if n, err := fmt.Sscanf(s, "ES_%f", &x); n == 1 && err == nil {
		t := ES(x)
		return t, t.Validate()
	}
	if n, err := fmt.Sscanf(s, "PL_%f", &x); n == 1 && err == nil {
		t := PL(x)
		return t, t.Validate()
	}
	return Target{}, fmt.Errorf("metrics: cannot parse target %q", s)
}

// StandardTargets is the set the paper evaluates (Fig. 9, Table 2,
// Fig. 10).
var StandardTargets = []Target{
	MaxPerf, MinEnergy, MinEDP, MinED2P,
	ES(25), ES(50), ES(75), PL(25), PL(50), PL(75),
}

// Point is one frequency configuration with its measured (or predicted)
// time and energy.
type Point struct {
	FreqMHz int
	TimeSec float64
	EnergyJ float64
}

// EDP returns energy × time.
func (p Point) EDP() float64 { return p.EnergyJ * p.TimeSec }

// ED2P returns energy × time².
func (p Point) ED2P() float64 { return p.EnergyJ * p.TimeSec * p.TimeSec }

// Check reports an error unless the point's time and energy are both
// positive and finite — the invariant every selection relies on.
func (p Point) Check() error {
	if !(p.TimeSec > 0 && p.EnergyJ > 0) || math.IsInf(p.TimeSec, 0) || math.IsInf(p.EnergyJ, 0) {
		return fmt.Errorf("metrics: invalid point at %d MHz", p.FreqMHz)
	}
	return nil
}

// Sweep is a full frequency characterisation of one kernel, with the
// baseline (default-frequency) configuration identified.
type Sweep struct {
	Points   []Point // ascending frequency
	Baseline int     // index into Points
}

// NewSweep assembles a sweep, sorting by frequency and locating the
// baseline frequency (which must be present).
func NewSweep(points []Point, baselineFreq int) (*Sweep, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("metrics: empty sweep")
	}
	ps := make([]Point, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].FreqMHz < ps[j].FreqMHz })
	base := -1
	for i, p := range ps {
		if err := p.Check(); err != nil {
			return nil, err
		}
		if i > 0 && ps[i].FreqMHz == ps[i-1].FreqMHz {
			return nil, fmt.Errorf("metrics: duplicate frequency %d MHz", p.FreqMHz)
		}
		if p.FreqMHz == baselineFreq {
			base = i
		}
	}
	if base < 0 {
		return nil, fmt.Errorf("metrics: baseline frequency %d MHz not in sweep", baselineFreq)
	}
	return &Sweep{Points: ps, Baseline: base}, nil
}

// BaselinePoint returns the default-configuration point.
func (s *Sweep) BaselinePoint() Point { return s.Points[s.Baseline] }

// CharPoint is a normalised characterisation point as plotted in
// Figs. 2, 7 and 8: speedup (x-axis) and per-task normalised energy
// (y-axis) relative to the default configuration.
type CharPoint struct {
	FreqMHz    int
	Speedup    float64 // t_default / t
	NormEnergy float64 // e / e_default
}

// Characterize normalises the sweep against its baseline.
func (s *Sweep) Characterize() []CharPoint {
	base := s.BaselinePoint()
	out := make([]CharPoint, len(s.Points))
	for i, p := range s.Points {
		out[i] = CharPoint{
			FreqMHz:    p.FreqMHz,
			Speedup:    base.TimeSec / p.TimeSec,
			NormEnergy: p.EnergyJ / base.EnergyJ,
		}
	}
	return out
}

// dominates reports whether a dominates b (no worse in both objectives,
// strictly better in at least one; minimise time and energy).
func dominates(a, b Point) bool {
	return a.TimeSec <= b.TimeSec && a.EnergyJ <= b.EnergyJ &&
		(a.TimeSec < b.TimeSec || a.EnergyJ < b.EnergyJ)
}

// ParetoFront returns the non-dominated subset of the sweep, sorted by
// ascending time (the red line in the paper's characterisation plots).
func (s *Sweep) ParetoFront() []Point {
	ps := make([]Point, len(s.Points))
	copy(ps, s.Points)
	// Sort by time, tie-break on energy: a point is on the front iff its
	// energy is strictly below every earlier point's best energy.
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].TimeSec != ps[j].TimeSec {
			return ps[i].TimeSec < ps[j].TimeSec
		}
		return ps[i].EnergyJ < ps[j].EnergyJ
	})
	var front []Point
	bestE := math.Inf(1)
	for _, p := range ps {
		if p.EnergyJ < bestE {
			front = append(front, p)
			bestE = p.EnergyJ
		}
	}
	return front
}

// Select applies the target definition of §5 to the sweep and returns
// the chosen configuration.
func (s *Sweep) Select(t Target) (Point, error) {
	i, err := Select(s.Points, s.Baseline, t)
	if err != nil {
		return Point{}, err
	}
	return s.Points[i], nil
}

// ErrNoBaseline is Select's error for an ES_x or PL_x target over
// candidates without a baseline configuration to anchor the interval.
var ErrNoBaseline = errors.New("metrics: ES/PL target needs a baseline configuration")

// Select is the one implementation of the §5 target definitions. It
// applies t to the candidate points and returns the index of the
// chosen one. base indexes the default configuration the ES_x/PL_x
// intervals are anchored to, or is -1 when there is none (then only the
// argmin targets can be selected). Every scan takes the first strict
// optimum, so ties resolve to the earliest candidate in pts order. A
// device sweep, a fleet's feasible grid and a predicted curve all
// select through it.
func Select(pts []Point, base int, t Target) (int, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	if len(pts) == 0 {
		return 0, fmt.Errorf("metrics: no candidate points")
	}
	energy := func(i int) float64 { return pts[i].EnergyJ }
	switch t.Kind {
	case KindMaxPerf:
		return Argmin(len(pts), func(i int) float64 { return pts[i].TimeSec }), nil
	case KindMinEnergy:
		return Argmin(len(pts), energy), nil
	case KindMinEDP:
		return Argmin(len(pts), func(i int) float64 { return pts[i].EDP() }), nil
	case KindMinED2P:
		return Argmin(len(pts), func(i int) float64 { return pts[i].ED2P() }), nil
	}
	if base < 0 {
		return 0, ErrNoBaseline
	}
	def := pts[base]
	lo := Argmin(len(pts), energy)
	best := -1
	if t.Kind == KindES {
		// ES_x (§5.2): on the interval between the default energy and the
		// minimum achievable energy, the target energy is e_def - x% of
		// the potential saving; among configurations at or below it,
		// pick the best-performing one. With no saving possible the
		// default configuration is returned.
		if pts[lo].EnergyJ >= def.EnergyJ {
			return base, nil
		}
		targetE := def.EnergyJ - t.X/100*(def.EnergyJ-pts[lo].EnergyJ)
		for i, p := range pts {
			if p.EnergyJ <= targetE+1e-12*def.EnergyJ && (best < 0 || p.TimeSec < pts[best].TimeSec) {
				best = i
			}
		}
		if best < 0 {
			return lo, nil
		}
		return best, nil
	}
	// PL_x (§5.3): the potential performance loss is the slowdown from
	// the default configuration to the minimum-energy one; the target
	// time is t_def + x% of that interval; among configurations at or
	// below it, pick the most energy-efficient one.
	slow := pts[lo].TimeSec
	if slow < def.TimeSec {
		slow = def.TimeSec
	}
	targetT := def.TimeSec + t.X/100*(slow-def.TimeSec)
	for i, p := range pts {
		if p.TimeSec <= targetT+1e-12*def.TimeSec && (best < 0 || p.EnergyJ < pts[best].EnergyJ) {
			best = i
		}
	}
	if best < 0 {
		return base, nil
	}
	return best, nil
}

// Argmin returns the index of the first strict minimum of f over
// 0..n-1 (n >= 1): ties resolve to the lower index.
func Argmin(n int, f func(i int) float64) int {
	best, bestV := 0, f(0)
	for i := 1; i < n; i++ {
		if v := f(i); v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

// ObjectiveValue returns the scalar each target optimises, evaluated at
// one point — the quantity the paper's APE/MAPE/RMSE error analysis
// compares between the predicted-optimal and actual-optimal frequency
// (§8.3). For ES_x the objective is energy; for PL_x and MAX_PERF it is
// time; for the remaining targets it is the respective product.
func ObjectiveValue(t Target, p Point) float64 {
	switch t.Kind {
	case KindMaxPerf, KindPL:
		return p.TimeSec
	case KindMinEnergy, KindES:
		return p.EnergyJ
	case KindMinEDP:
		return p.EDP()
	case KindMinED2P:
		return p.ED2P()
	default:
		return math.NaN()
	}
}

// EnergySavingPct returns the energy saving of a configuration relative
// to the sweep's baseline, in percent (see the package-level
// EnergySavingPct).
func (s *Sweep) EnergySavingPct(p Point) float64 { return EnergySavingPct(s.BaselinePoint(), p) }

// PerfLossPct returns the performance loss of a configuration relative
// to the sweep's baseline, in percent (see the package-level
// PerfLossPct).
func (s *Sweep) PerfLossPct(p Point) float64 { return PerfLossPct(s.BaselinePoint(), p) }

// EnergySavingPct returns the energy saving of p relative to the
// default configuration def, in percent: 100·(e_def − e)/e_def. The
// default itself saves exactly 0%; since energies are positive the
// saving is always strictly below 100%. Negative values mean p costs
// more energy than the default.
func EnergySavingPct(def, p Point) float64 {
	return 100 * (def.EnergyJ - p.EnergyJ) / def.EnergyJ
}

// PerfLossPct returns the performance loss of p relative to the default
// configuration def, in percent: 100·(t − t_def)/t_def, clamped at 0 —
// a configuration faster than the default loses nothing.
func PerfLossPct(def, p Point) float64 {
	if pl := 100 * (p.TimeSec - def.TimeSec) / def.TimeSec; pl > 0 {
		return pl
	}
	return 0
}

// PointAt returns the sweep point at the given frequency.
func (s *Sweep) PointAt(freqMHz int) (Point, bool) {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].FreqMHz >= freqMHz })
	if i < len(s.Points) && s.Points[i].FreqMHz == freqMHz {
		return s.Points[i], true
	}
	return Point{}, false
}
