package apps

import (
	"testing"

	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/metrics"
	"synergy/internal/model"
	"synergy/internal/mpi"
)

func smallCfg(nodes, gpus int) RunConfig {
	return RunConfig{
		Spec:        hw.V100(),
		Nodes:       nodes,
		GPUsPerNode: gpus,
		LocalNx:     48,
		LocalNy:     48,
		Steps:       6,
		Net:         mpi.EDRFabric(),
	}
}

func TestAppsSingleRankRun(t *testing.T) {
	for _, app := range []*App{NewCloverLeaf(), NewMiniWeather()} {
		res, err := Run(app, smallCfg(1, 1))
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if res.TimeSec <= 0 || res.EnergyJ <= 0 {
			t.Fatalf("%s: non-positive result %+v", app.Name, res)
		}
		if res.Ranks != 1 {
			t.Fatalf("%s: ranks = %d", app.Name, res.Ranks)
		}
	}
}

func TestAppKernelsValidateAndHaveBindings(t *testing.T) {
	for _, app := range []*App{NewCloverLeaf(), NewMiniWeather()} {
		st := app.NewState(16, 16)
		for _, k := range app.Kernels {
			if err := k.Validate(); err != nil {
				t.Errorf("%s/%s: %v", app.Name, k.Name, err)
			}
			if _, ok := st.Args[k.Name]; !ok {
				t.Errorf("%s: state has no bindings for %s", app.Name, k.Name)
			}
		}
		if len(st.Halo) == 0 {
			t.Errorf("%s: no halo fields", app.Name)
		}
	}
}

func TestAppStateStaysFinite(t *testing.T) {
	for _, app := range []*App{NewCloverLeaf(), NewMiniWeather()} {
		cfg := smallCfg(1, 2) // includes halo exchange
		cfg.Steps = 20
		if _, err := Run(app, cfg); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		// Re-run locally to inspect the state after the same number of
		// steps on one rank.
		st := app.NewState(cfg.LocalNx, cfg.LocalNy)
		items := cfg.LocalNx * cfg.LocalNy
		for step := 0; step < 20; step++ {
			for _, k := range app.Kernels {
				if err := kernelir.Execute(k, st.Args[k.Name], items); err != nil {
					t.Fatalf("%s/%s: %v", app.Name, k.Name, err)
				}
			}
		}
		for _, args := range st.Args {
			for field, buf := range args.F32 {
				for i, v := range buf {
					if v != v || v > 1e6 || v < -1e6 {
						t.Fatalf("%s: field %s[%d] = %v after 20 steps",
							app.Name, field, i, v)
					}
				}
			}
			break // all kernels share the same binding set
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	app := NewCloverLeaf()
	a, err := Run(app, smallCfg(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(app, smallCfg(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeSec != b.TimeSec || a.EnergyJ != b.EnergyJ {
		t.Fatalf("non-deterministic run: %+v vs %+v", a, b)
	}
}

func TestRunConfigValidation(t *testing.T) {
	app := NewMiniWeather()
	bad := smallCfg(0, 4)
	if _, err := Run(app, bad); err == nil {
		t.Error("zero nodes accepted")
	}
	bad = smallCfg(1, 1)
	bad.LocalNx = 2
	if _, err := Run(app, bad); err == nil {
		t.Error("tiny grid accepted")
	}
	bad = smallCfg(1, 1)
	bad.Steps = 0
	if _, err := Run(app, bad); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestWeakScalingEnergyGrowsWithRanks(t *testing.T) {
	app := NewMiniWeather()
	small, err := Run(app, smallCfg(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(app, smallCfg(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Weak scaling: 4x the ranks, ~4x the energy; time grows only by
	// the communication overhead.
	if ratio := big.EnergyJ / small.EnergyJ; ratio < 3.5 || ratio > 4.6 {
		t.Errorf("energy ratio %.2f for 4x ranks, want ~4", ratio)
	}
	if big.TimeSec < small.TimeSec {
		t.Errorf("time shrank under weak scaling: %v -> %v", small.TimeSec, big.TimeSec)
	}
	if big.TimeSec > small.TimeSec*1.5 {
		t.Errorf("communication overhead too large: %v -> %v", small.TimeSec, big.TimeSec)
	}
}

func TestFreqPlanScalesKernels(t *testing.T) {
	app := NewCloverLeaf()
	spec := hw.V100()
	low := spec.CoreFreqsMHz[40]
	plan := FreqPlan{}
	for _, k := range app.Kernels {
		plan[k.Name] = low
	}
	base, err := Run(app, smallCfg(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg(1, 1)
	cfg.Plan = plan
	scaled, err := Run(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.TimeSec <= base.TimeSec {
		t.Errorf("low-frequency run not slower: %v vs %v", scaled.TimeSec, base.TimeSec)
	}
	if scaled.EnergyJ >= base.EnergyJ {
		t.Errorf("low-frequency run not cheaper: %v vs %v J", scaled.EnergyJ, base.EnergyJ)
	}
	if scaled.ClockSets == 0 {
		t.Error("no clock changes recorded for a planned run")
	}
}

func TestFunctionalCapPreservesTiming(t *testing.T) {
	app := NewMiniWeather()
	full, err := Run(app, smallCfg(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	capped := smallCfg(1, 1)
	capped.FunctionalCap = 64
	part, err := Run(app, capped)
	if err != nil {
		t.Fatal(err)
	}
	if part.TimeSec != full.TimeSec {
		t.Fatalf("functional cap changed virtual time: %v vs %v", part.TimeSec, full.TimeSec)
	}
}

// TestFig10TargetsSaveEnergy is the end-to-end §8.4 check: per-kernel
// plans derived from the trained models must trade energy for time the
// way Fig. 10 reports — ES_50 saves substantial energy on both apps.
func TestFig10TargetsSaveEnergy(t *testing.T) {
	spec := hw.V100()
	adv, err := model.DefaultAdvisor(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []*App{NewCloverLeaf(), NewMiniWeather()} {
		cfg := smallCfg(1, 4)
		cfg.LocalNx, cfg.LocalNy = 16384, 16384
		cfg.StateRows = 8
		cfg.FunctionalCap = 256
		cfg.Steps = 10
		base, err := Run(app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		items := cfg.LocalNx * cfg.LocalNy
		plan, err := PlanFromAdvisor(app, adv, items, metrics.ES(50))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Plan = plan
		es50, err := Run(app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		saving := 1 - es50.EnergyJ/base.EnergyJ
		if saving < 0.05 {
			t.Errorf("%s: ES_50 saving %.1f%%, expected substantial savings", app.Name, 100*saving)
		}
		if saving < 0.10 {
			t.Errorf("%s: ES_50 saving %.1f%%, paper reports ~20-30%%", app.Name, 100*saving)
		}
		loss := es50.TimeSec/base.TimeSec - 1
		if loss > 0.35 {
			t.Errorf("%s: ES_50 loss %.1f%% too large", app.Name, 100*loss)
		}
	}
}

func TestRunProfileMergesAcrossRanks(t *testing.T) {
	app := NewCloverLeaf()
	cfg := smallCfg(1, 2)
	cfg.Profile = true
	res, err := Run(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kernels) != len(app.Kernels) {
		t.Fatalf("%d kernel profiles, want %d", len(res.Kernels), len(app.Kernels))
	}
	totalE := 0.0
	for _, s := range res.Kernels {
		// 2 ranks x steps launches per kernel.
		if s.Launches != 2*cfg.Steps {
			t.Errorf("%s: %d launches, want %d", s.Name, s.Launches, 2*cfg.Steps)
		}
		if s.EnergyJ <= 0 {
			t.Errorf("%s: non-positive energy", s.Name)
		}
		totalE += s.EnergyJ
	}
	// Kernel energy is a subset of total device energy (idle excluded).
	if totalE >= res.EnergyJ {
		t.Errorf("kernel energy %.3f exceeds device total %.3f", totalE, res.EnergyJ)
	}
	// Sorted by descending energy.
	for i := 1; i < len(res.Kernels); i++ {
		if res.Kernels[i].EnergyJ > res.Kernels[i-1].EnergyJ {
			t.Fatal("profiles not sorted by energy")
		}
	}
}
