package apps

import (
	"reflect"
	"testing"

	"synergy/internal/fault"
	"synergy/internal/hw"
	"synergy/internal/mpi"
	"synergy/internal/nvml"
	"synergy/internal/power"
	"synergy/internal/slurm"
)

// TestCloverLeafCompletesWhenClockSetDenied is the end-to-end acceptance
// scenario: a CloverLeaf job on a SLURM cluster whose clock-set calls
// are denied by an injected fault must complete at default clocks with
// the forfeited savings recorded as degradation events — no panic, no
// leaked privileges.
func TestCloverLeafCompletesWhenClockSetDenied(t *testing.T) {
	t.Parallel()
	const gpus = 2
	node := slurm.NewNode("n0", hw.V100(), gpus, slurm.GresNVGpuFreq)
	c := slurm.NewCluster(node)
	c.RegisterPlugin(&slurm.NVGpuFreqPlugin{Controller: c})
	// The plugin's privilege window opens (set_api_restriction is not
	// faulted), but the driver then refuses every application-clock set —
	// the sticky denial the runtime must degrade around. The epilogue's
	// clock reset is a different site and stays healthy.
	c.SetFaultInjector(fault.New(17, fault.Rule{
		Site: nvml.SiteSetAppClocks, Err: nvml.ErrNotPermitted,
	}))

	app := NewCloverLeaf()
	low := hw.V100().MinCoreMHz()
	plan := FreqPlan{}
	for _, k := range app.Kernels {
		plan[k.Name] = low
	}

	var res *RunResult
	jobRes, err := c.Submit(&slurm.Job{
		Name: "cloverleaf", User: "alice", NumNodes: 1, Exclusive: true,
		Gres: map[slurm.GRES]bool{slurm.GresNVGpuFreq: true},
		Run: func(ctx *slurm.Allocation) error {
			cfg := smallCfg(1, gpus)
			cfg.Plan = plan
			cfg.Devices = ctx.GPUs()
			cfg.User = "alice"
			var rerr error
			res, rerr = Run(app, cfg)
			return rerr
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if jobRes.Err != nil {
		t.Fatalf("job failed under denied clock control: %v", jobRes.Err)
	}
	if res == nil || res.TimeSec <= 0 || res.EnergyJ <= 0 {
		t.Fatalf("run produced no result: %+v", res)
	}
	// Every planned submission was denied and recorded.
	want := len(app.Kernels) * smallCfg(1, gpus).Steps * gpus
	if len(res.Degradations) != want {
		t.Fatalf("degradations = %d, want %d (every planned submission)", len(res.Degradations), want)
	}
	for _, d := range res.Degradations {
		if d.WantMHz != low || d.Kernel == "" || d.Reason == "" {
			t.Fatalf("malformed degradation event %+v", d)
		}
	}
	// The job ran at default clocks throughout: no clock set ever took.
	if res.ClockSets != 0 {
		t.Fatalf("clock sets = %d, want 0 under a denied driver", res.ClockSets)
	}
	for _, g := range node.GPUs {
		if g.AppClockMHz() != g.Spec().DefaultCoreMHz {
			t.Errorf("%s left at %d MHz, want default %d", g.Label(), g.AppClockMHz(), g.Spec().DefaultCoreMHz)
		}
		// Epilogue closed the privilege window despite the faulted driver.
		pm, err := power.NewManager(g, "bob", false)
		if err != nil {
			t.Fatal(err)
		}
		if err := pm.SetCoreFreq(g.Spec().MinCoreMHz()); err == nil {
			t.Errorf("%s: privilege leak after degraded job", g.Label())
		}
	}
}

// TestFaultScenarioTraceIsReproducible runs an identical seeded scenario
// twice through the full stack — MPI fabric and SYCL runtime — and
// requires bit-identical failure traces.
func TestFaultScenarioTraceIsReproducible(t *testing.T) {
	t.Parallel()
	sc, err := fault.ParseScenario("flaky-fabric", `
# jittery interconnect and slow submits
mpi.send     p=0.3 delay=1ms
sycl.submit  p=0.2 delay=0.5ms
`)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []fault.Event {
		in := fault.NewFromScenario(4242, sc)
		cfg := smallCfg(2, 1)
		cfg.Fault = in
		res, err := Run(NewCloverLeaf(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.TimeSec <= 0 {
			t.Fatal("degenerate run")
		}
		return in.Trace()
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("scenario fired no faults — comparison is vacuous")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("identical seed diverged: %d vs %d events", len(first), len(second))
	}
	// And a different seed draws a different schedule.
	in := fault.NewFromScenario(4243, sc)
	cfg := smallCfg(2, 1)
	cfg.Fault = in
	if _, err := Run(NewCloverLeaf(), cfg); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first, in.Trace()) {
		t.Fatal("different seeds produced the identical trace")
	}
}

// TestFaultInjectedDelaysSlowTheRun: injected fabric latency must show
// up in the application wall time (virtual time accounting, not just
// error paths).
func TestFaultInjectedDelaysSlowTheRun(t *testing.T) {
	t.Parallel()
	base, err := Run(NewCloverLeaf(), smallCfg(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg(2, 1)
	cfg.Fault = fault.New(9, fault.Rule{Site: mpi.SiteSend, DelaySec: 0.01})
	slow, err := Run(NewCloverLeaf(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.TimeSec <= base.TimeSec {
		t.Fatalf("injected send latency did not slow the run: %v vs %v", slow.TimeSec, base.TimeSec)
	}
}
