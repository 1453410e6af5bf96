// Integration tests: cross-package flows exercising the whole SYnergy
// stack the way a user would — train, annotate, submit, measure, and
// schedule — complementing the per-package unit tests.
package synergy

import (
	"math"
	"testing"

	"synergy/internal/apps"
	"synergy/internal/benchsuite"
	"synergy/internal/core"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/model"
	"synergy/internal/mpi"
	"synergy/internal/power"
	"synergy/internal/slurm"
	"synergy/internal/sycl"
)

// trainAdvisor trains the default Random-Forest advisor once per test
// binary run.
func trainAdvisor(t *testing.T, spec *hw.Spec) *model.Advisor {
	t.Helper()
	adv, err := model.DefaultAdvisor(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	return adv
}

// TestEndToEndTargetSubmission walks the full Listing-3 pipeline on a
// real suite benchmark: train → annotate with ES_50 → submit → the
// measured energy beats the default run of the same kernel.
func TestEndToEndTargetSubmission(t *testing.T) {
	spec := hw.V100()
	adv := trainAdvisor(t, spec)

	bench, err := benchsuite.ByName("matmul")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bench.NewInstance(1 << 10)
	if err != nil {
		t.Fatal(err)
	}

	dev := sycl.NewDevice(spec)
	pm, err := power.NewPrivilegedManager(dev.HW())
	if err != nil {
		t.Fatal(err)
	}
	q := core.NewQueue(dev, pm)
	q.SetAdvisor(adv)
	q.SetFunctionalCap(inst.Items)

	const virtualItems = 1 << 24
	launch := func(submit func(cg sycl.CommandGroup) (*sycl.Event, error)) hw.KernelRecord {
		ev, err := submit(func(h *sycl.Handler) {
			h.ParallelFor(virtualItems, bench.Kernel, inst.Args)
		})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ev.Profiling()
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}

	base := launch(q.Submit)
	es50 := launch(func(cg sycl.CommandGroup) (*sycl.Event, error) {
		return q.SubmitWithTarget(metrics.ES(50), cg)
	})

	if es50.CoreMHz >= base.CoreMHz {
		t.Errorf("ES_50 ran at %d MHz, expected below default %d", es50.CoreMHz, base.CoreMHz)
	}
	saving := 1 - es50.EnergyJ/base.EnergyJ
	if saving < 0.05 {
		t.Errorf("ES_50 saved only %.1f%% energy on matmul", 100*saving)
	}
	// The kernel still computed correct results.
	if err := inst.Verify(); err != nil {
		t.Errorf("output verification failed: %v", err)
	}
}

// TestPortabilityAcrossVendors runs the same SYnergy code path on the
// NVIDIA, AMD and Intel-CPU backends — the §4 portability claim (and
// the §2.1 gap the paper calls out: no portable frequency scaling
// across CPUs, GPUs and accelerators).
func TestPortabilityAcrossVendors(t *testing.T) {
	bench, err := benchsuite.ByName("median")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*hw.Spec{hw.V100(), hw.MI100(), hw.Xeon8160()} {
		inst, err := bench.NewInstance(512)
		if err != nil {
			t.Fatal(err)
		}
		dev := sycl.NewDevice(spec)
		pm, err := power.NewPrivilegedManager(dev.HW())
		if err != nil {
			t.Fatal(err)
		}
		if pm.VendorName() != spec.Vendor.String() {
			t.Fatalf("%s: wrong backend %s", spec.Name, pm.VendorName())
		}
		q := core.NewQueue(dev, pm)
		low := spec.CoreFreqsMHz[len(spec.CoreFreqsMHz)/2]
		ev, err := q.SubmitWithFreq(0, low, func(h *sycl.Handler) {
			h.ParallelFor(inst.Items, bench.Kernel, inst.Args)
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		rec, err := ev.Profiling()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if rec.CoreMHz != low {
			t.Errorf("%s: ran at %d, want %d", spec.Name, rec.CoreMHz, low)
		}
		if err := inst.Verify(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

// TestDeviceEnergyDecomposition checks the §4.2 coarse/fine relation:
// the device window energy equals the kernel energies plus the idle
// energy between them (within sampling error).
func TestDeviceEnergyDecomposition(t *testing.T) {
	spec := hw.V100()
	dev := sycl.NewDevice(spec)
	pm, err := power.NewPrivilegedManager(dev.HW())
	if err != nil {
		t.Fatal(err)
	}
	q := core.NewQueue(dev, pm)
	q.SetFunctionalCap(1 << 10)

	bench, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bench.NewInstance(1 << 10)
	if err != nil {
		t.Fatal(err)
	}

	kernelSum := 0.0
	busy := 0.0
	const launches = 5
	for i := 0; i < launches; i++ {
		ev, err := q.Submit(func(h *sycl.Handler) {
			h.ParallelFor(1<<26, bench.Kernel, inst.Args)
		})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ev.Profiling()
		if err != nil {
			t.Fatal(err)
		}
		kernelSum += rec.EnergyJ
		busy += rec.End - rec.Start
		dev.HW().AdvanceIdle(0.25)
	}
	total := dev.HW().Now()
	idleE := (total - busy) * spec.IdlePowerW
	device := q.DeviceEnergyConsumption()
	want := kernelSum + idleE
	if rel := math.Abs(device-want) / want; rel > 0.05 {
		t.Fatalf("device energy %.2f J, kernels+idle %.2f J (%.1f%% apart)", device, want, 100*rel)
	}
}

// TestClusterDeniesUnprivilegedScaling runs the MPI application through
// SLURM as a regular user WITHOUT the nvgpufreq GRES: the per-kernel
// frequency plan is denied (permission), the job degrades to default
// clocks — completing with every denial recorded — proving the plugin
// gate is what enables SYnergy's savings on shared clusters.
func TestClusterDeniesUnprivilegedScaling(t *testing.T) {
	spec := hw.V100()
	node := slurm.NewNode("n0", spec, 2, slurm.GresNVGpuFreq)
	cluster := slurm.NewCluster(node)
	cluster.RegisterPlugin(&slurm.NVGpuFreqPlugin{Controller: cluster})

	app := apps.NewMiniWeather()
	plan := apps.FreqPlan{}
	for _, k := range app.Kernels {
		plan[k.Name] = spec.CoreFreqsMHz[10]
	}
	run := func(gres map[slurm.GRES]bool) *apps.RunResult {
		var rr *apps.RunResult
		res, err := cluster.Submit(&slurm.Job{
			Name: "mw", User: "alice", NumNodes: 1, Exclusive: true, Gres: gres,
			Run: func(alloc *slurm.Allocation) error {
				var err error
				rr, err = apps.Run(app, apps.RunConfig{
					Spec: spec, Nodes: 1, GPUsPerNode: 2,
					LocalNx: 48, LocalNy: 48, Steps: 2,
					Plan: plan, Net: mpi.EDRFabric(),
					Devices: alloc.GPUs(), User: "alice",
				})
				return err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("job failed: %v", res.Err)
		}
		return rr
	}

	unpriv := run(nil)
	if len(unpriv.Degradations) == 0 {
		t.Fatal("unprivileged job recorded no degradations without the nvgpufreq GRES")
	}
	if unpriv.ClockSets != 0 {
		t.Fatalf("unprivileged job changed clocks %d times", unpriv.ClockSets)
	}
	priv := run(map[slurm.GRES]bool{slurm.GresNVGpuFreq: true})
	if len(priv.Degradations) != 0 {
		t.Fatalf("privileged job degraded: %+v", priv.Degradations)
	}
	if priv.ClockSets == 0 {
		t.Fatal("privileged job never scaled frequencies")
	}
}

// TestAdvisorPredictionsWithinTable checks every (benchmark, target)
// advisor prediction is a supported frequency — the contract the queue
// relies on.
func TestAdvisorPredictionsWithinTable(t *testing.T) {
	spec := hw.V100()
	adv := trainAdvisor(t, spec)
	for _, bench := range benchsuite.All() {
		for _, tgt := range metrics.StandardTargets {
			f, err := adv.AdviseCoreFreq(bench.Kernel, int(bench.CharItems), tgt)
			if err != nil {
				t.Fatalf("%s/%s: %v", bench.Name, tgt, err)
			}
			if !spec.SupportsCoreFreq(f) {
				t.Errorf("%s/%s: advised unsupported %d MHz", bench.Name, tgt, f)
			}
		}
	}
}

// TestSchedulerAdvisedTargetEndToEnd closes the scheduler loop: under a
// tight cluster power budget the EnergyAdvicePlugin hints an ES target,
// the job builds its per-kernel plan from the hint, and the run saves
// energy relative to the unadvised baseline.
func TestSchedulerAdvisedTargetEndToEnd(t *testing.T) {
	spec := hw.V100()
	adv := trainAdvisor(t, spec)
	app := apps.NewMiniWeather()

	runWithBudget := func(budget float64) (*apps.RunResult, bool) {
		node := slurm.NewNode("n0", spec, 4, slurm.GresNVGpuFreq)
		cluster := slurm.NewCluster(node)
		cluster.RegisterPlugin(&slurm.NVGpuFreqPlugin{Controller: cluster})
		cluster.RegisterPlugin(&slurm.EnergyAdvicePlugin{ClusterBudgetW: budget})
		var result *apps.RunResult
		advised := false
		res, err := cluster.Submit(&slurm.Job{
			Name: "mw", User: "alice", NumNodes: 1, Exclusive: true,
			Gres: map[slurm.GRES]bool{slurm.GresNVGpuFreq: true},
			Run: func(ctx *slurm.Allocation) error {
				var plan apps.FreqPlan
				if tgt, ok, err := slurm.AdvisedTarget(ctx); err != nil {
					return err
				} else if ok {
					advised = true
					plan, err = apps.PlanFromAdvisor(app, adv, 16384*16384, tgt)
					if err != nil {
						return err
					}
				}
				r, err := apps.Run(app, apps.RunConfig{
					Spec: spec, Nodes: 1, GPUsPerNode: 4,
					LocalNx: 16384, LocalNy: 16384, Steps: 5,
					StateRows: 8, FunctionalCap: 64,
					Plan: plan, Net: mpi.EDRFabric(),
					Devices: ctx.GPUs(), User: "alice",
				})
				if err != nil {
					return err
				}
				result = r
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return result, advised
	}

	base, advised := runWithBudget(5000) // plenty of budget
	if advised {
		t.Fatal("advice given under a loose budget")
	}
	tight, advised := runWithBudget(800) // 4 GPUs x 300 W >> 800 W
	if !advised {
		t.Fatal("no advice under a tight budget")
	}
	saving := 1 - tight.EnergyJ/base.EnergyJ
	if saving < 0.08 {
		t.Errorf("advised run saved only %.1f%% energy", 100*saving)
	}
}
