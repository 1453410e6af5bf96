package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/metrics"
	"synergy/internal/power"
	"synergy/internal/sycl"
)

func newV100Queue(t *testing.T) (*Queue, *sycl.Device) {
	t.Helper()
	dev := sycl.NewDevice(hw.V100())
	pm, err := power.NewPrivilegedManager(dev.HW())
	if err != nil {
		t.Fatal(err)
	}
	return NewQueue(dev, pm), dev
}

// streamKernel is a memory-heavy kernel whose launches are long enough
// for sampled profiling to converge.
func streamKernel(t testing.TB) *kernelir.Kernel {
	t.Helper()
	b := kernelir.NewBuilder("stream")
	in := b.BufferF32("in", kernelir.Read)
	out := b.BufferF32("out", kernelir.Write)
	gid := b.GlobalID()
	acc := b.ConstF(0)
	b.Repeat(16, func() {
		v := b.LoadF(in, gid)
		b.MoveF(acc, b.AddF(acc, v))
	})
	b.StoreF(out, gid, acc)
	return b.MustBuild()
}

func streamArgs(n int) kernelir.Args {
	in := make([]float32, n)
	out := make([]float32, n)
	for i := range in {
		in[i] = 1
	}
	return kernelir.Args{F32: map[string][]float32{"in": in, "out": out}}
}

func submitStream(t *testing.T, q *Queue, n int) *sycl.Event {
	t.Helper()
	k := streamKernel(t)
	args := streamArgs(n)
	ev, err := q.Submit(func(h *sycl.Handler) { h.ParallelFor(n, k, args) })
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// longStreamKernel reads enough global memory per item that a large
// launch runs for hundreds of virtual milliseconds.
func longStreamKernel(t testing.TB) *kernelir.Kernel {
	t.Helper()
	b := kernelir.NewBuilder("stream_long")
	in := b.BufferF32("in", kernelir.Read)
	out := b.BufferF32("out", kernelir.Write)
	gid := b.GlobalID()
	acc := b.ConstF(0)
	b.Repeat(671, func() {
		v := b.LoadF(in, gid)
		b.MoveF(acc, b.AddF(acc, v))
	})
	b.StoreF(out, gid, acc)
	return b.MustBuild()
}

func TestListing1ProfilingFlow(t *testing.T) {
	// synergy::queue q; submit; wait; kernel_energy_consumption;
	// device_energy_consumption. A large launch gives a long virtual
	// kernel; the functional cap keeps host interpretation cheap.
	q, dev := newV100Queue(t)
	q.SetFunctionalCap(4096)
	n := 1 << 26
	k := longStreamKernel(t)
	args := streamArgs(4096)
	ev, err := q.Submit(func(h *sycl.Handler) { h.ParallelFor(n, k, args) })
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	kernelE, err := q.KernelEnergyConsumption(ev)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := ev.Profiling()
	if rec.End-rec.Start < 0.05 {
		t.Fatalf("test kernel too short (%vs) for sampled profiling", rec.End-rec.Start)
	}
	if rel := math.Abs(kernelE-rec.EnergyJ) / rec.EnergyJ; rel > 0.10 {
		t.Fatalf("sampled kernel energy off by %.1f%% on a long kernel", 100*rel)
	}
	dev.HW().AdvanceIdle(0.1)
	deviceE := q.DeviceEnergyConsumption()
	if deviceE <= kernelE {
		t.Fatalf("device energy %v should exceed kernel energy %v (idle included)", deviceE, kernelE)
	}
}

func TestListing2QueueWithFrequencies(t *testing.T) {
	dev := sycl.NewDevice(hw.V100())
	pm, err := power.NewPrivilegedManager(dev.HW())
	if err != nil {
		t.Fatal(err)
	}
	low := dev.HW().Spec().CoreFreqsMHz[5]
	q, err := NewQueueWithFreq(dev, pm, 877, low)
	if err != nil {
		t.Fatal(err)
	}
	k := streamKernel(t)
	args := streamArgs(1 << 16)
	ev, err := q.Submit(func(h *sycl.Handler) { h.ParallelFor(1<<16, k, args) })
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ev.Profiling()
	if err != nil {
		t.Fatal(err)
	}
	if rec.CoreMHz != low {
		t.Fatalf("kernel ran at %d MHz, want pinned %d", rec.CoreMHz, low)
	}
}

func TestNewQueueWithFreqValidation(t *testing.T) {
	dev := sycl.NewDevice(hw.V100())
	pm, err := power.NewPrivilegedManager(dev.HW())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewQueueWithFreq(dev, pm, 1215, 1312); err == nil {
		t.Error("wrong memory frequency accepted")
	}
	if _, err := NewQueueWithFreq(dev, pm, 877, 1311); err == nil {
		t.Error("unsupported core frequency accepted")
	}
	if _, err := NewQueueWithFreq(dev, pm, 0, dev.HW().Spec().DefaultCoreMHz); err != nil {
		t.Errorf("mem=0 (keep) rejected: %v", err)
	}
}

func TestListing4PerKernelFrequencyOverride(t *testing.T) {
	q, dev := newV100Queue(t)
	spec := dev.HW().Spec()
	k := streamKernel(t)

	args1 := streamArgs(1 << 14)
	ev1, err := q.SubmitWithFreq(877, spec.MinCoreMHz(), func(h *sycl.Handler) { h.ParallelFor(1<<14, k, args1) })
	if err != nil {
		t.Fatal(err)
	}
	args2 := streamArgs(1 << 14)
	ev2, err := q.SubmitWithFreq(0, spec.MaxCoreMHz(), func(h *sycl.Handler) { h.ParallelFor(1<<14, k, args2) })
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := ev1.Profiling()
	r2, _ := ev2.Profiling()
	if r1.CoreMHz != spec.MinCoreMHz() || r2.CoreMHz != spec.MaxCoreMHz() {
		t.Fatalf("per-kernel frequencies: %d then %d, want %d then %d",
			r1.CoreMHz, r2.CoreMHz, spec.MinCoreMHz(), spec.MaxCoreMHz())
	}
	if dev.HW().ClockSetCount() != 2 {
		t.Fatalf("clock sets = %d, want 2", dev.HW().ClockSetCount())
	}
}

func TestSubmitWithFreqValidation(t *testing.T) {
	q, _ := newV100Queue(t)
	k := streamKernel(t)
	args := streamArgs(16)
	if _, err := q.SubmitWithFreq(123, 1312, func(h *sycl.Handler) { h.ParallelFor(16, k, args) }); err == nil {
		t.Error("bad memory frequency accepted")
	}
	if _, err := q.SubmitWithFreq(877, 7, func(h *sycl.Handler) { h.ParallelFor(16, k, args) }); err == nil {
		t.Error("bad core frequency accepted")
	}
}

// stubAdvisor returns a fixed frequency and records its inputs.
type stubAdvisor struct {
	freq   int
	kernel string
	target metrics.Target
	err    error
}

func (s *stubAdvisor) AdviseCoreFreq(k *kernelir.Kernel, items int, target metrics.Target) (int, error) {
	s.kernel = k.Name
	s.target = target
	return s.freq, s.err
}

func TestListing3TargetAnnotatedSubmission(t *testing.T) {
	q, dev := newV100Queue(t)
	adv := &stubAdvisor{freq: dev.HW().Spec().CoreFreqsMHz[42]}
	q.SetAdvisor(adv)
	k := streamKernel(t)
	args := streamArgs(1 << 14)
	ev, err := q.SubmitWithTarget(metrics.MinEDP, func(h *sycl.Handler) { h.ParallelFor(1<<14, k, args) })
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ev.Profiling()
	if err != nil {
		t.Fatal(err)
	}
	if rec.CoreMHz != adv.freq {
		t.Fatalf("kernel ran at %d MHz, want advised %d", rec.CoreMHz, adv.freq)
	}
	if adv.kernel != "stream" || adv.target != metrics.MinEDP {
		t.Fatalf("advisor saw kernel %q target %s", adv.kernel, adv.target)
	}
}

func TestSubmitWithTargetWithoutAdvisor(t *testing.T) {
	q, _ := newV100Queue(t)
	k := streamKernel(t)
	args := streamArgs(16)
	_, err := q.SubmitWithTarget(metrics.MinEDP, func(h *sycl.Handler) { h.ParallelFor(16, k, args) })
	if err == nil || !strings.Contains(err.Error(), "advisor") {
		t.Fatalf("expected missing-advisor error, got %v", err)
	}
}

func TestSubmitWithTargetAdvisorErrors(t *testing.T) {
	q, _ := newV100Queue(t)
	k := streamKernel(t)
	args := streamArgs(16)
	cg := func(h *sycl.Handler) { h.ParallelFor(16, k, args) }

	q.SetAdvisor(&stubAdvisor{err: errors.New("model unavailable")})
	if _, err := q.SubmitWithTarget(metrics.MinEDP, cg); err == nil {
		t.Error("advisor error not propagated")
	}
	q.SetAdvisor(&stubAdvisor{freq: 4242})
	if _, err := q.SubmitWithTarget(metrics.MinEDP, cg); err == nil {
		t.Error("unsupported advised frequency accepted")
	}
	q.SetAdvisor(&stubAdvisor{freq: 1312})
	if _, err := q.SubmitWithTarget(metrics.Target{Kind: metrics.KindES, X: -5}, cg); err == nil {
		t.Error("invalid target accepted")
	}
}

func TestRedundantFrequencySetsAreSkipped(t *testing.T) {
	// Submitting many kernels at the same frequency must set the clock
	// once (the §4.4 overhead mitigation).
	dev := sycl.NewDevice(hw.V100())
	pm, err := power.NewPrivilegedManager(dev.HW())
	if err != nil {
		t.Fatal(err)
	}
	low := dev.HW().Spec().CoreFreqsMHz[3]
	q, err := NewQueueWithFreq(dev, pm, 877, low)
	if err != nil {
		t.Fatal(err)
	}
	k := streamKernel(t)
	for i := 0; i < 10; i++ {
		args := streamArgs(1 << 12)
		if _, err := q.Submit(func(h *sycl.Handler) { h.ParallelFor(1<<12, k, args) }); err != nil {
			t.Fatal(err)
		}
	}
	q.Wait()
	if n := dev.HW().ClockSetCount(); n != 1 {
		t.Fatalf("clock sets = %d, want 1 (redundant sets skipped)", n)
	}
}

func TestUnprivilegedFrequencyScalingDegradesGracefully(t *testing.T) {
	// Without the SLURM plugin's privilege window, frequency scaling is
	// denied — the motivation for §7. The runtime degrades gracefully:
	// the kernel still runs (at current clocks) and the forfeited saving
	// is recorded as a degradation event.
	dev := sycl.NewDevice(hw.V100())
	pm, err := power.NewManager(dev.HW(), "alice", false)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(dev, pm)
	k := streamKernel(t)
	args := streamArgs(16)
	want := dev.HW().Spec().MinCoreMHz()
	ev, err := q.SubmitWithFreq(877, want,
		func(h *sycl.Handler) { h.ParallelFor(16, k, args) })
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatalf("degraded submission failed: %v", err)
	}
	if got := dev.HW().AppClockMHz(); got != dev.HW().Spec().DefaultCoreMHz {
		t.Fatalf("clocks at %d MHz, want driver default %d MHz",
			got, dev.HW().Spec().DefaultCoreMHz)
	}
	degr := q.Degradations()
	if len(degr) != 1 {
		t.Fatalf("degradations = %d, want 1", len(degr))
	}
	if degr[0].WantMHz != want || degr[0].Kernel != k.Name {
		t.Fatalf("degradation event %+v, want kernel %q at %d MHz", degr[0], k.Name, want)
	}
}

func TestShortKernelProfilingInaccuracy(t *testing.T) {
	// §4.4: kernels shorter than the sampling interval profile poorly.
	q, _ := newV100Queue(t)
	ev := submitStream(t, q, 1<<10)
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	rec, _ := ev.Profiling()
	if rec.End-rec.Start > 0.015 {
		t.Skip("kernel not short enough on this configuration")
	}
	got, err := q.KernelEnergyConsumption(ev)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-rec.EnergyJ) / rec.EnergyJ; rel < 0.5 {
		t.Fatalf("short-kernel profiling unexpectedly accurate (%.1f%%)", 100*rel)
	}
}

func TestMixedQueuesListing4Scenario(t *testing.T) {
	// Two queues on one device with different configurations.
	dev := sycl.NewDevice(hw.V100())
	pm, err := power.NewPrivilegedManager(dev.HW())
	if err != nil {
		t.Fatal(err)
	}
	spec := dev.HW().Spec()
	lowQ, err := NewQueueWithFreq(dev, pm, 877, spec.CoreFreqsMHz[10])
	if err != nil {
		t.Fatal(err)
	}
	defQ := NewQueue(dev, pm)
	k := streamKernel(t)

	a1 := streamArgs(1 << 12)
	ev1, err := lowQ.Submit(func(h *sycl.Handler) { h.ParallelFor(1<<12, k, a1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := ev1.Wait(); err != nil {
		t.Fatal(err)
	}
	a2 := streamArgs(1 << 12)
	ev2, err := defQ.SubmitWithFreq(877, spec.MaxCoreMHz(), func(h *sycl.Handler) { h.ParallelFor(1<<12, k, a2) })
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := ev1.Profiling()
	r2, _ := ev2.Profiling()
	if r1.CoreMHz != spec.CoreFreqsMHz[10] || r2.CoreMHz != spec.MaxCoreMHz() {
		t.Fatalf("mixed queues ran at %d and %d MHz", r1.CoreMHz, r2.CoreMHz)
	}
}

func TestProfilerAggregatesPerKernel(t *testing.T) {
	q, _ := newV100Queue(t)
	q.EnableProfiling()
	k := streamKernel(t)
	spec := q.Device().HW().Spec()
	for i := 0; i < 3; i++ {
		args := streamArgs(1 << 12)
		if _, err := q.Submit(func(h *sycl.Handler) { h.ParallelFor(1<<12, k, args) }); err != nil {
			t.Fatal(err)
		}
	}
	args := streamArgs(1 << 12)
	if _, err := q.SubmitWithFreq(0, spec.MinCoreMHz(),
		func(h *sycl.Handler) { h.ParallelFor(1<<12, k, args) }); err != nil {
		t.Fatal(err)
	}
	stats := q.Profile()
	if len(stats) != 1 {
		t.Fatalf("%d kernels profiled, want 1", len(stats))
	}
	s := stats[0]
	if s.Name != "stream" || s.Launches != 4 {
		t.Fatalf("bad stats: %+v", s)
	}
	if s.EnergyJ <= 0 || s.TimeSec <= 0 || s.AvgPowerW() <= 0 {
		t.Fatalf("non-positive aggregates: %+v", s)
	}
	if len(s.FreqLaunches) != 2 {
		t.Fatalf("freq histogram %v, want 2 distinct frequencies", s.FreqLaunches)
	}
	if s.FreqLaunches[spec.MinCoreMHz()] != 1 {
		t.Fatalf("min-frequency launch not recorded: %v", s.FreqLaunches)
	}
	if out := RenderProfile(stats); out == "" {
		t.Fatal("empty profile render")
	}
}

func TestProfilerDisabledByDefault(t *testing.T) {
	q, _ := newV100Queue(t)
	k := streamKernel(t)
	args := streamArgs(256)
	if _, err := q.Submit(func(h *sycl.Handler) { h.ParallelFor(256, k, args) }); err != nil {
		t.Fatal(err)
	}
	if stats := q.Profile(); len(stats) != 0 {
		t.Fatalf("profiler collected %d kernels while disabled", len(stats))
	}
}
