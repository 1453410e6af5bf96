package placement_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/placement"
	"synergy/internal/sweep"
)

// TestNoPlacementExceedsBudget is the fleet budget invariant: whatever
// the benchmark, target and (randomly drawn) budget, the chosen
// configuration's fleet power — board power of the hosting device plus
// idle draw of every other device — never exceeds the budget.
func TestNoPlacementExceedsBudget(t *testing.T) {
	t.Parallel()
	names := []string{"v100", "mi100", "xeon"}
	idleFloor := hw.V100().IdlePowerW + hw.MI100().IdlePowerW + hw.Xeon8160().IdlePowerW
	rng := rand.New(rand.NewSource(7))
	suite := benchsuite.All()
	for trial := 0; trial < 12; trial++ {
		// Budgets from barely above the idle floor to effectively open.
		budget := idleFloor + 5 + rng.Float64()*600
		f, err := hw.FleetFromNames(names, hw.Budget{PowerW: budget})
		if err != nil {
			t.Fatal(err)
		}
		bm := suite[rng.Intn(len(suite))]
		g, err := placement.BuildGroundTruth(sweep.Shared(), f, bm.Kernel, bm.CharItems)
		if err != nil {
			t.Fatalf("budget %.1f W, %s: %v", budget, bm.Name, err)
		}
		for _, target := range metrics.StandardTargets {
			p, err := g.Select(target)
			if err != nil {
				// A tight budget may leave no feasible baseline for ES/PL,
				// or no feasible configuration at all; both are legal
				// refusals, never silent violations.
				continue
			}
			if p.FleetPowerW > budget*(1+1e-12) {
				t.Errorf("budget %.3f W, %s %v: placed %s@%d at fleet power %.3f W",
					budget, bm.Name, target, p.Device, p.FreqMHz, p.FleetPowerW)
			}
			if !p.Feasible {
				t.Errorf("budget %.3f W, %s %v: returned infeasible candidate", budget, bm.Name, target)
			}
		}
	}
}

// TestDegenerateFleetMatchesSweepSelect is the reduction proof: a
// single-device fleet with no budget must make bit-identical decisions
// to the single-device selector metrics.Sweep.Select — same frequency,
// same time, same energy, for every suite benchmark and every standard
// target. The joint search strictly generalises the paper's per-device
// frequency search.
func TestDegenerateFleetMatchesSweepSelect(t *testing.T) {
	t.Parallel()
	for _, device := range []string{"v100", "mi100", "xeon8480", "alveo"} {
		device := device
		t.Run(device, func(t *testing.T) {
			t.Parallel()
			spec, err := hw.SpecByName(device)
			if err != nil {
				t.Fatal(err)
			}
			f, err := hw.FleetFromNames([]string{device}, hw.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			for _, bm := range benchsuite.All() {
				sw, err := sweep.GroundTruth(spec, bm.Kernel, bm.CharItems)
				if err != nil {
					t.Fatalf("%s: %v", bm.Name, err)
				}
				g, err := placement.BuildGroundTruth(sweep.Shared(), f, bm.Kernel, bm.CharItems)
				if err != nil {
					t.Fatalf("%s: %v", bm.Name, err)
				}
				for _, target := range metrics.StandardTargets {
					want, err := sw.Select(target)
					if err != nil {
						t.Fatalf("%s %v: %v", bm.Name, target, err)
					}
					got, err := g.Select(target)
					if err != nil {
						t.Fatalf("%s %v: %v", bm.Name, target, err)
					}
					if got.FreqMHz != want.FreqMHz || got.TimeSec != want.TimeSec || got.EnergyJ != want.EnergyJ {
						t.Errorf("%s %v: fleet (%d MHz, %v, %v) != sweep (%d MHz, %v, %v)",
							bm.Name, target, got.FreqMHz, got.TimeSec, got.EnergyJ,
							want.FreqMHz, want.TimeSec, want.EnergyJ)
					}
					// ES/PL percentages must match the single-device figures.
					if es := sw.EnergySavingPct(want); got.ESPct != es {
						t.Errorf("%s %v: ESPct %v != sweep %v", bm.Name, target, got.ESPct, es)
					}
					if pl := sw.PerfLossPct(want); got.PLPct != pl {
						t.Errorf("%s %v: PLPct %v != sweep %v", bm.Name, target, got.PLPct, pl)
					}
				}
			}
		})
	}
}

// TestZeroAcceleratorFleetUnchangedByClassMix checks that for the pure
// argmin targets, removing an accelerator that did not win never
// perturbs the decision among the remaining devices (unconstrained
// budget, so idle-power accounting cannot shift feasibility). The
// relative targets ES_x/PL_x are deliberately excluded: their target
// interval is anchored to the fleet-wide minimum-energy configuration,
// so an accelerator that loses the placement can still legitimately
// move the threshold — that fleet-relativity is the point of the joint
// search, and the enumeration oracle pins its exact behaviour.
func TestZeroAcceleratorFleetUnchangedByClassMix(t *testing.T) {
	t.Parallel()
	full, err := hw.FleetFromNames([]string{"v100", "xeon", "alveo"}, hw.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	noAccel, err := hw.FleetFromNames([]string{"v100", "xeon"}, hw.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	argminTargets := []metrics.Target{
		metrics.MaxPerf, metrics.MinEnergy, metrics.MinEDP, metrics.MinED2P,
	}
	for _, bm := range benchsuite.All() {
		gFull, err := placement.BuildGroundTruth(sweep.Shared(), full, bm.Kernel, bm.CharItems)
		if err != nil {
			t.Fatal(err)
		}
		gNo, err := placement.BuildGroundTruth(sweep.Shared(), noAccel, bm.Kernel, bm.CharItems)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range argminTargets {
			pFull, err := gFull.Select(target)
			if err != nil {
				t.Fatalf("%s %v: %v", bm.Name, target, err)
			}
			if pFull.Device == "alveo" {
				continue // the accelerator won on merit; nothing to compare
			}
			pNo, err := gNo.Select(target)
			if err != nil {
				t.Fatalf("%s %v: %v", bm.Name, target, err)
			}
			if pNo.Device != pFull.Device || pNo.FreqMHz != pFull.FreqMHz {
				t.Errorf("%s %v: dropping the idle accelerator moved the placement %s@%d -> %s@%d",
					bm.Name, target, pFull.Device, pFull.FreqMHz, pNo.Device, pNo.FreqMHz)
			}
		}
	}
}

// TestTightBudgetForcesRefusalNotViolation: with a budget just above
// the idle floor no configuration can run, and Select must say so.
func TestTightBudgetForcesRefusalNotViolation(t *testing.T) {
	t.Parallel()
	idleFloor := hw.V100().IdlePowerW + hw.MI100().IdlePowerW + hw.Xeon8160().IdlePowerW
	f, err := hw.FleetFromNames([]string{"v100", "mi100", "xeon"}, hw.Budget{PowerW: idleFloor + 1})
	if err != nil {
		t.Fatal(err)
	}
	bm, err := benchsuite.ByName("matmul")
	if err != nil {
		t.Fatal(err)
	}
	g, err := placement.BuildGroundTruth(sweep.Shared(), f, bm.Kernel, bm.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	if n := g.FeasibleCount(); n != 0 {
		t.Fatalf("expected no feasible configurations just above the idle floor, got %d", n)
	}
	if _, err := g.Select(metrics.MinEnergy); err == nil {
		t.Error("Select over an empty feasible set must fail")
	}
	if _, err := g.BaselineCandidate(); err == nil {
		t.Error("BaselineCandidate with no feasible baseline must fail")
	}
}

// TestConcurrentSelect exercises the placement search from many
// goroutines sharing one grid and the process-wide sweep engine — the
// workload of the CI race step.
func TestConcurrentSelect(t *testing.T) {
	t.Parallel()
	f := canonicalFleet(t)
	bm, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	g, err := placement.BuildGroundTruth(sweep.Shared(), f, bm.Kernel, bm.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := g.Select(metrics.ES(50))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, target := range metrics.StandardTargets {
				if _, err := g.Select(target); err != nil {
					t.Errorf("%v: %v", target, err)
				}
			}
			p, err := g.Select(metrics.ES(50))
			if err != nil {
				t.Error(err)
				return
			}
			if p.Device != ref.Device || p.FreqMHz != ref.FreqMHz {
				t.Errorf("concurrent Select diverged: %s@%d vs %s@%d",
					p.Device, p.FreqMHz, ref.Device, ref.FreqMHz)
			}
		}()
	}
	wg.Wait()
}

// TestNoFeasibleBaselineRefusesRelativeTargets: when the budget admits
// some configurations but no device's default clock, the argmin
// targets still place, while ES_x and PL_x — whose intervals are
// anchored at the baseline — refuse with the budget error.
func TestNoFeasibleBaselineRefusesRelativeTargets(t *testing.T) {
	t.Parallel()
	bm, err := benchsuite.ByName("matmul")
	if err != nil {
		t.Fatal(err)
	}
	open, err := hw.FleetFromNames([]string{"v100"}, hw.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := placement.BuildGroundTruth(sweep.Shared(), open, bm.Kernel, bm.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	def, err := g.BaselineCandidate()
	if err != nil {
		t.Fatal(err)
	}
	minW := def.PowerW
	for _, c := range g.Candidates {
		minW = math.Min(minW, c.PowerW)
	}
	f, err := hw.FleetFromNames([]string{"v100"}, hw.Budget{PowerW: (minW + def.PowerW) / 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err = placement.BuildGroundTruth(sweep.Shared(), f, bm.Kernel, bm.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	_, want := g.BaselineCandidate()
	if want == nil || g.FeasibleCount() == 0 {
		t.Fatalf("budget %s: want some feasible configurations but no feasible baseline", f.Budget)
	}
	for _, target := range metrics.StandardTargets {
		p, err := g.Select(target)
		switch target.Kind {
		case metrics.KindES, metrics.KindPL:
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%v: got (%+v, %v), want error %q", target, p, err, want)
			}
		default:
			if err != nil || !p.Feasible || p.BaselineDevice != "" || p.ESPct != 0 || p.PLPct != 0 {
				t.Errorf("%v: got (%+v, %v), want a feasible placement with no baseline figures", target, p, err)
			}
		}
	}
}
