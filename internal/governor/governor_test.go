package governor

import (
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/sweep"
)

// drive runs the governor loop on one benchmark's ground truth until it
// settles (or maxIters), returning the settled frequency and the
// cumulative objective paid during exploration.
func drive(t *testing.T, spec *hw.Spec, benchName string, target metrics.Target, maxIters int, stopWhenSettled bool) (int, float64) {
	t.Helper()
	b, err := benchsuite.ByName(benchName)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := sweep.GroundTruth(spec, b.Kernel, b.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(spec, target)
	if err != nil {
		t.Fatal(err)
	}
	cum := 0.0
	freq := 0
	for i := 0; i < maxIters; i++ {
		freq = g.Decide(benchName)
		p, ok := gt.PointAt(freq)
		if !ok {
			t.Fatalf("governor chose %d MHz, not in sweep", freq)
		}
		cum += metrics.ObjectiveValue(target, p)
		if err := g.Observe(benchName, p.TimeSec, p.EnergyJ); err != nil {
			t.Fatal(err)
		}
		if stopWhenSettled && g.Settled(benchName) {
			break
		}
	}
	return g.Decide(benchName), cum
}

func TestGovernorConvergesNearOptimum(t *testing.T) {
	spec := hw.V100()
	for _, name := range []string{"median", "matmul", "black_scholes"} {
		b, err := benchsuite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		gt, err := sweep.GroundTruth(spec, b.Kernel, b.CharItems)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := gt.Select(metrics.MinEDP)
		if err != nil {
			t.Fatal(err)
		}
		settled, _ := drive(t, spec, name, metrics.MinEDP, 200, true)
		p, ok := gt.PointAt(settled)
		if !ok {
			t.Fatalf("%s: settled at unknown frequency %d", name, settled)
		}
		optObj := metrics.ObjectiveValue(metrics.MinEDP, opt)
		gotObj := metrics.ObjectiveValue(metrics.MinEDP, p)
		if gotObj > optObj*1.10 {
			t.Errorf("%s: governor settled at %d MHz with EDP %.4g, optimum %d MHz gives %.4g",
				name, settled, gotObj, opt.FreqMHz, optObj)
		}
	}
}

func TestGovernorSettlesQuickly(t *testing.T) {
	spec := hw.V100()
	g, err := New(spec, metrics.MinEDP)
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchsuite.ByName("median")
	if err != nil {
		t.Fatal(err)
	}
	gt, err := sweep.GroundTruth(spec, b.Kernel, b.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	iters := 0
	for ; iters < 300 && !g.Settled("median"); iters++ {
		f := g.Decide("median")
		p, _ := gt.PointAt(f)
		if err := g.Observe("median", p.TimeSec, p.EnergyJ); err != nil {
			t.Fatal(err)
		}
	}
	if !g.Settled("median") {
		t.Fatal("governor did not settle in 300 launches")
	}
	if iters > 60 {
		t.Errorf("governor needed %d launches to settle; expected a few dozen", iters)
	}
	if g.Launches("median") != iters {
		t.Errorf("launch count %d, want %d", g.Launches("median"), iters)
	}
}

// TestGovernorExplorationCostVsStaticPlan quantifies why the paper's
// static approach wins on short-lived workloads: during its exploration
// phase the governor pays more than a model-predicted static frequency
// would.
func TestGovernorExplorationCostVsStaticPlan(t *testing.T) {
	spec := hw.V100()
	b, err := benchsuite.ByName("matmul")
	if err != nil {
		t.Fatal(err)
	}
	gt, err := sweep.GroundTruth(spec, b.Kernel, b.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := gt.Select(metrics.MinEDP)
	if err != nil {
		t.Fatal(err)
	}
	const launches = 40
	_, cumGovernor := drive(t, spec, "matmul", metrics.MinEDP, launches, false)
	cumStatic := float64(launches) * metrics.ObjectiveValue(metrics.MinEDP, opt)
	if cumGovernor <= cumStatic {
		t.Errorf("governor exploration was free (%.4g <= %.4g); expected a cost vs static optimum",
			cumGovernor, cumStatic)
	}
}

func TestGovernorTracksKernelsIndependently(t *testing.T) {
	spec := hw.V100()
	g, err := New(spec, metrics.MinEDP)
	if err != nil {
		t.Fatal(err)
	}
	fa := g.Decide("a")
	fb := g.Decide("b")
	if fa != fb {
		t.Fatalf("initial decisions differ: %d vs %d", fa, fb)
	}
	// Feed divergent feedback: "a" improves at lower frequencies, "b"
	// explodes — their states must not interfere.
	if err := g.Observe("a", 1.0, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := g.Observe("b", 100.0, 100.0); err != nil {
		t.Fatal(err)
	}
	if g.Launches("a") != 1 || g.Launches("b") != 1 {
		t.Fatal("per-kernel launch counts wrong")
	}
}

func TestGovernorValidation(t *testing.T) {
	spec := hw.V100()
	if _, err := New(spec, metrics.Target{Kind: metrics.KindES, X: -1}); err == nil {
		t.Error("invalid target accepted")
	}
	g, err := New(spec, metrics.MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Observe("ghost", 1, 1); err == nil {
		t.Error("Observe without Decide accepted")
	}
	g.Decide("k")
	if err := g.Observe("k", -1, 1); err == nil {
		t.Error("negative time accepted")
	}
}

func TestGovernorDecisionsAlwaysSupported(t *testing.T) {
	spec := hw.MI100() // small table exercises the edges
	g, err := New(spec, metrics.MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	gt, err := sweep.GroundTruth(spec, b.Kernel, b.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		f := g.Decide("vec_add")
		if !spec.SupportsCoreFreq(f) {
			t.Fatalf("decision %d MHz unsupported", f)
		}
		p, _ := gt.PointAt(f)
		if err := g.Observe("vec_add", p.TimeSec, p.EnergyJ); err != nil {
			t.Fatal(err)
		}
	}
}
