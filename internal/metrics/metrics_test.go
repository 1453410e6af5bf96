package metrics

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"synergy/internal/hw"
)

// syntheticSweep builds a plausible DVFS sweep: time falls with
// frequency, energy is U-shaped with its minimum in the interior.
func syntheticSweep(t *testing.T) *Sweep {
	t.Helper()
	var pts []Point
	for f := 400; f <= 1500; f += 100 {
		fr := float64(f) / 1000
		time := 1.0/fr + 0.05
		power := 30 + 120*fr*fr
		pts = append(pts, Point{FreqMHz: f, TimeSec: time, EnergyJ: power * time})
	}
	s, err := NewSweep(pts, 1300)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// hwSweep builds a sweep from the actual hardware model, for
// integration-grade checks.
func hwSweep(t *testing.T, w hw.Workload) *Sweep {
	t.Helper()
	spec := hw.V100()
	pts := make([]Point, len(spec.CoreFreqsMHz))
	err := spec.Sweep(w, func(i int, m hw.Measurement) error {
		pts[i] = Point{FreqMHz: spec.CoreFreqsMHz[i], TimeSec: m.TimeSec, EnergyJ: m.EnergyJ}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSweep(pts, spec.DefaultCoreMHz)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseTargetRoundTrip(t *testing.T) {
	t.Parallel()
	for _, tgt := range StandardTargets {
		got, err := ParseTarget(tgt.String())
		if err != nil {
			t.Fatalf("ParseTarget(%s): %v", tgt, err)
		}
		if got != tgt {
			t.Fatalf("round trip %s -> %s", tgt, got)
		}
	}
	if _, err := ParseTarget("BOGUS"); err == nil {
		t.Fatal("bogus target parsed")
	}
	if _, err := ParseTarget("ES_0"); err == nil {
		t.Fatal("ES_0 accepted (x must be positive)")
	}
	if _, err := ParseTarget("ES_150"); err == nil {
		t.Fatal("ES_150 accepted (x must be <= 100)")
	}
}

// TestNewSweepSortsOutOfOrderInput: NewSweep orders a copy of points
// given out of order by frequency, leaves the caller's slice as it was,
// and finds the baseline in the sorted copy.
func TestNewSweepSortsOutOfOrderInput(t *testing.T) {
	t.Parallel()
	want := syntheticSweep(t)
	pts := slices.Clone(want.Points)
	rand.New(rand.NewSource(3)).Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	given := slices.Clone(pts)
	s, err := NewSweep(pts, want.BaselinePoint().FreqMHz)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.Points, want.Points) || s.Baseline != want.Baseline {
		t.Fatalf("shuffled input gave %v (baseline %d), want %v (baseline %d)", s.Points, s.Baseline, want.Points, want.Baseline)
	}
	if !slices.Equal(pts, given) {
		t.Fatal("NewSweep reordered the caller's slice")
	}
}

func TestNewSweepValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewSweep(nil, 100); err == nil {
		t.Error("empty sweep accepted")
	}
	pts := []Point{{FreqMHz: 100, TimeSec: 1, EnergyJ: 1}}
	if _, err := NewSweep(pts, 200); err == nil {
		t.Error("baseline not in sweep accepted")
	}
	dup := []Point{
		{FreqMHz: 100, TimeSec: 1, EnergyJ: 1},
		{FreqMHz: 100, TimeSec: 2, EnergyJ: 2},
	}
	if _, err := NewSweep(dup, 100); err == nil {
		t.Error("duplicate frequency accepted")
	}
	bad := []Point{{FreqMHz: 100, TimeSec: -1, EnergyJ: 1}}
	if _, err := NewSweep(bad, 100); err == nil {
		t.Error("negative time accepted")
	}
	inf := []Point{{FreqMHz: 100, TimeSec: 1, EnergyJ: math.Inf(1)}}
	if _, err := NewSweep(inf, 100); err == nil {
		t.Error("infinite energy accepted")
	}
}

// TestSelectCore pins the index-level contract of Select shared by
// sweeps, fleet grids and predicted curves: ties go to the lower index,
// the argmin targets need no baseline, ES_x/PL_x without one fail with
// ErrNoBaseline, and an empty candidate set is an error.
func TestSelectCore(t *testing.T) {
	t.Parallel()
	pts := []Point{
		{FreqMHz: 100, TimeSec: 2, EnergyJ: 1},
		{FreqMHz: 200, TimeSec: 1, EnergyJ: 2},
		{FreqMHz: 300, TimeSec: 1, EnergyJ: 1.5},
	}
	for _, c := range []struct {
		target Target
		base   int
		want   int
	}{
		{MaxPerf, -1, 1}, // time tie between 1 and 2
		{MinEnergy, -1, 0},
		{MinEDP, -1, 2},
		{MinED2P, -1, 2},
		{ES(50), 1, 2}, // target energy 1.5: points 0 and 2 qualify, 2 is faster
		{PL(50), 1, 2}, // target time 1.5: points 1 and 2 qualify, 2 is cheaper
	} {
		got, err := Select(pts, c.base, c.target)
		if err != nil || got != c.want {
			t.Errorf("Select(%v, base %d) = %d, %v; want %d", c.target, c.base, got, err, c.want)
		}
	}
	for _, target := range []Target{ES(50), PL(50)} {
		if _, err := Select(pts, -1, target); !errors.Is(err, ErrNoBaseline) {
			t.Errorf("%v without a baseline: err %v, want ErrNoBaseline", target, err)
		}
	}
	if _, err := Select(nil, -1, MinEnergy); err == nil {
		t.Error("empty candidate set accepted")
	}
	if _, err := Select(pts, 0, ES(0)); err == nil {
		t.Error("invalid target accepted")
	}
}

func TestSweepSortsPoints(t *testing.T) {
	t.Parallel()
	pts := []Point{
		{FreqMHz: 300, TimeSec: 1, EnergyJ: 3},
		{FreqMHz: 100, TimeSec: 3, EnergyJ: 1},
		{FreqMHz: 200, TimeSec: 2, EnergyJ: 2},
	}
	s, err := NewSweep(pts, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].FreqMHz <= s.Points[i-1].FreqMHz {
			t.Fatal("points not sorted by frequency")
		}
	}
	if s.BaselinePoint().FreqMHz != 200 {
		t.Fatalf("baseline = %d, want 200", s.BaselinePoint().FreqMHz)
	}
}

func TestMaxPerfAndMinEnergySelection(t *testing.T) {
	t.Parallel()
	s := syntheticSweep(t)
	mp, err := s.Select(MaxPerf)
	if err != nil {
		t.Fatal(err)
	}
	if mp.FreqMHz != 1500 {
		t.Errorf("MAX_PERF chose %d MHz, want 1500", mp.FreqMHz)
	}
	me, err := s.Select(MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if p.EnergyJ < me.EnergyJ {
			t.Errorf("MIN_ENERGY missed a better point at %d MHz", p.FreqMHz)
		}
	}
}

// TestFig4EDPOrdering pins the Fig. 4 observation: the ED2P optimum sits
// at a frequency at or above the EDP optimum, which sits at or above the
// energy optimum (ED2P weighs delay more).
func TestFig4EDPOrdering(t *testing.T) {
	t.Parallel()
	for _, s := range []*Sweep{
		syntheticSweep(t),
		hwSweep(t, hw.Workload{Name: "bs", Items: 1 << 22, FloatOps: 180, SFOps: 10, GlobalBytes: 20}),
	} {
		me, _ := s.Select(MinEnergy)
		edp, _ := s.Select(MinEDP)
		ed2p, _ := s.Select(MinED2P)
		if edp.FreqMHz < me.FreqMHz {
			t.Errorf("EDP optimum (%d) below energy optimum (%d)", edp.FreqMHz, me.FreqMHz)
		}
		if ed2p.FreqMHz < edp.FreqMHz {
			t.Errorf("ED2P optimum (%d) below EDP optimum (%d)", ed2p.FreqMHz, edp.FreqMHz)
		}
	}
}

func TestESDefinition(t *testing.T) {
	t.Parallel()
	s := syntheticSweep(t)
	def := s.BaselinePoint()
	me, _ := s.Select(MinEnergy)
	for _, x := range []float64{25, 50, 75, 100} {
		p, err := s.Select(ES(x))
		if err != nil {
			t.Fatal(err)
		}
		targetE := def.EnergyJ - x/100*(def.EnergyJ-me.EnergyJ)
		if p.EnergyJ > targetE*(1+1e-9) {
			t.Errorf("ES_%g: energy %.4g exceeds target %.4g", x, p.EnergyJ, targetE)
		}
		// Best-performing among qualifying points.
		for _, q := range s.Points {
			if q.EnergyJ <= targetE && q.TimeSec < p.TimeSec {
				t.Errorf("ES_%g: %d MHz qualifies and is faster", x, q.FreqMHz)
			}
		}
	}
	// ES_100 is the minimum-energy configuration.
	p, _ := s.Select(ES(100))
	if p.FreqMHz != me.FreqMHz {
		t.Errorf("ES_100 = %d MHz, want min-energy %d", p.FreqMHz, me.FreqMHz)
	}
}

func TestPLDefinition(t *testing.T) {
	t.Parallel()
	s := syntheticSweep(t)
	def := s.BaselinePoint()
	me, _ := s.Select(MinEnergy)
	for _, x := range []float64{25, 50, 75, 100} {
		p, err := s.Select(PL(x))
		if err != nil {
			t.Fatal(err)
		}
		targetT := def.TimeSec + x/100*(me.TimeSec-def.TimeSec)
		if p.TimeSec > targetT*(1+1e-9) {
			t.Errorf("PL_%g: time %.4g exceeds target %.4g", x, p.TimeSec, targetT)
		}
		for _, q := range s.Points {
			if q.TimeSec <= targetT && q.EnergyJ < p.EnergyJ {
				t.Errorf("PL_%g: %d MHz qualifies and uses less energy", x, q.FreqMHz)
			}
		}
	}
}

// Property (§5): ES_x energy is non-increasing and its time
// non-decreasing as x grows; dually for PL_x.
func TestESPLMonotoneInX(t *testing.T) {
	t.Parallel()
	s := hwSweep(t, hw.Workload{Name: "mono", Items: 1 << 22, FloatOps: 120, GlobalBytes: 40})
	prevES, _ := s.Select(ES(10))
	prevPL, _ := s.Select(PL(10))
	for x := 20.0; x <= 100; x += 10 {
		es, _ := s.Select(ES(x))
		if es.EnergyJ > prevES.EnergyJ*(1+1e-9) {
			t.Errorf("ES energy increased from x=%g", x-10)
		}
		if es.TimeSec < prevES.TimeSec*(1-1e-9) {
			t.Errorf("ES time decreased from x=%g", x-10)
		}
		prevES = es
		pl, _ := s.Select(PL(x))
		if pl.EnergyJ > prevPL.EnergyJ*(1+1e-9) {
			t.Errorf("PL energy increased from x=%g", x-10)
		}
		prevPL = pl
	}
}

func TestESWithNoSavingsReturnsBaseline(t *testing.T) {
	t.Parallel()
	// Energy strictly increasing as frequency falls: no savings exist.
	var pts []Point
	for f := 400; f <= 1200; f += 200 {
		fr := float64(f) / 1000
		time := 1.0 / fr
		pts = append(pts, Point{FreqMHz: f, TimeSec: time, EnergyJ: 100 * time})
	}
	s, err := NewSweep(pts, 1200)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Select(ES(50))
	if err != nil {
		t.Fatal(err)
	}
	if p.FreqMHz != 1200 {
		t.Fatalf("ES_50 with no savings chose %d MHz, want baseline 1200", p.FreqMHz)
	}
}

// Pareto-front properties, checked with randomized sweeps.
func TestParetoFrontProperties(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{
				FreqMHz: 100 + i*10,
				TimeSec: 0.1 + rng.Float64(),
				EnergyJ: 1 + 10*rng.Float64(),
			}
		}
		s, err := NewSweep(pts, 100)
		if err != nil {
			t.Fatal(err)
		}
		front := s.ParetoFront()
		if len(front) == 0 {
			t.Fatal("empty Pareto front")
		}
		// (1) No point on the front dominates another front point.
		for i := range front {
			for j := range front {
				if i != j && dominates(front[i], front[j]) {
					t.Fatalf("front point %d dominates front point %d", i, j)
				}
			}
		}
		// (2) Every off-front point is dominated by some front point.
		onFront := map[int]bool{}
		for _, p := range front {
			onFront[p.FreqMHz] = true
		}
		for _, p := range s.Points {
			if onFront[p.FreqMHz] {
				continue
			}
			dominated := false
			for _, q := range front {
				if dominates(q, p) {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Fatalf("off-front point at %d MHz not dominated", p.FreqMHz)
			}
		}
		// (3) Front sorted by ascending time, descending energy.
		for i := 1; i < len(front); i++ {
			if front[i].TimeSec < front[i-1].TimeSec || front[i].EnergyJ > front[i-1].EnergyJ {
				t.Fatal("front not monotone")
			}
		}
	}
}

func TestCharacterizeBaselineIsUnity(t *testing.T) {
	t.Parallel()
	s := syntheticSweep(t)
	cs := s.Characterize()
	for _, c := range cs {
		if c.FreqMHz == 1300 {
			if math.Abs(c.Speedup-1) > 1e-12 || math.Abs(c.NormEnergy-1) > 1e-12 {
				t.Fatalf("baseline char point = %+v, want (1, 1)", c)
			}
			return
		}
	}
	t.Fatal("baseline point missing from characterisation")
}

func TestObjectiveValue(t *testing.T) {
	t.Parallel()
	p := Point{FreqMHz: 1000, TimeSec: 2, EnergyJ: 3}
	cases := []struct {
		tgt  Target
		want float64
	}{
		{MaxPerf, 2}, {MinEnergy, 3}, {MinEDP, 6}, {MinED2P, 12},
		{ES(25), 3}, {PL(25), 2},
	}
	for _, c := range cases {
		if got := ObjectiveValue(c.tgt, p); got != c.want {
			t.Errorf("ObjectiveValue(%s) = %v, want %v", c.tgt, got, c.want)
		}
	}
}

func TestPointAt(t *testing.T) {
	t.Parallel()
	s := syntheticSweep(t)
	p, ok := s.PointAt(700)
	if !ok || p.FreqMHz != 700 {
		t.Fatalf("PointAt(700) = %+v, %v", p, ok)
	}
	if _, ok := s.PointAt(701); ok {
		t.Fatal("PointAt found a non-existent frequency")
	}
}

func TestEDPandED2P(t *testing.T) {
	t.Parallel()
	f := func(e, tm float64) bool {
		e, tm = math.Abs(e)+0.1, math.Abs(tm)+0.1
		if math.IsInf(e, 0) || math.IsInf(tm, 0) {
			return true
		}
		p := Point{TimeSec: tm, EnergyJ: e}
		return p.EDP() == e*tm && p.ED2P() == e*tm*tm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseTarget checks the parser never panics and that successful
// parses round-trip through String.
func FuzzParseTarget(f *testing.F) {
	for _, s := range []string{"MIN_EDP", "ES_25", "PL_100", "ES_-1", "garbage", "ES_", "PL_abc"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tgt, err := ParseTarget(s)
		if err != nil {
			return
		}
		back, err := ParseTarget(tgt.String())
		if err != nil {
			t.Fatalf("round trip of %q -> %s failed: %v", s, tgt, err)
		}
		if back != tgt {
			t.Fatalf("round trip changed target: %s -> %s", tgt, back)
		}
	})
}
