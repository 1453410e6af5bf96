package sycl

import (
	"sync"
	"testing"

	"synergy/internal/hw"
	"synergy/internal/kernelir"
)

func saxpyKernel(t testing.TB) *kernelir.Kernel {
	t.Helper()
	b := kernelir.NewBuilder("saxpy")
	x := b.BufferF32("x", kernelir.Read)
	y := b.BufferF32("y", kernelir.Read)
	z := b.BufferF32("z", kernelir.Write)
	a := b.ScalarF("a")
	gid := b.GlobalID()
	xv := b.LoadF(x, gid)
	yv := b.LoadF(y, gid)
	b.StoreF(z, gid, b.AddF(b.MulF(a, xv), yv))
	return b.MustBuild()
}

func saxpyArgs(n int) (kernelir.Args, []float32) {
	x := make([]float32, n)
	y := make([]float32, n)
	z := make([]float32, n)
	for i := range x {
		x[i] = float32(i)
		y[i] = 1
	}
	return kernelir.Args{
		F32:     map[string][]float32{"x": x, "y": y, "z": z},
		ScalarF: map[string]float64{"a": 2},
	}, z
}

func TestQueueExecutesKernelAndComputesResults(t *testing.T) {
	q := NewQueue(NewDevice(hw.V100()))
	k := saxpyKernel(t)
	args, z := saxpyArgs(1024)
	ev, err := q.Submit(func(h *Handler) { h.ParallelFor(1024, k, args) })
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := range z {
		if z[i] != float32(2*i+1) {
			t.Fatalf("z[%d] = %v, want %v", i, z[i], 2*i+1)
		}
	}
	rec, err := ev.Profiling()
	if err != nil {
		t.Fatal(err)
	}
	if rec.End <= rec.Start || rec.EnergyJ <= 0 {
		t.Fatalf("bad profiling record: %+v", rec)
	}
	if rec.Name != "saxpy" {
		t.Fatalf("record name %q", rec.Name)
	}
}

func TestInOrderQueueSerializesKernels(t *testing.T) {
	q := NewQueue(NewDevice(hw.V100()))
	k := saxpyKernel(t)
	var events []*Event
	for i := 0; i < 8; i++ {
		args, _ := saxpyArgs(4096)
		ev, err := q.Submit(func(h *Handler) { h.ParallelFor(4096, k, args) })
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	q.Wait()
	prevEnd := 0.0
	for i, ev := range events {
		rec, err := ev.Profiling()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Start < prevEnd {
			t.Fatalf("kernel %d started at %v before previous ended at %v", i, rec.Start, prevEnd)
		}
		prevEnd = rec.End
	}
}

func TestSubmitPreRunsBeforeKernel(t *testing.T) {
	dev := NewDevice(hw.V100())
	q := NewQueue(dev)
	k := saxpyKernel(t)
	args, _ := saxpyArgs(1024)
	low := dev.HW().Spec().MinCoreMHz()
	ev, err := q.SubmitObserved(
		func() error { return dev.HW().SetAppClock(low) },
		nil,
		func(h *Handler) { h.ParallelFor(1024, k, args) },
	)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ev.Profiling()
	if err != nil {
		t.Fatal(err)
	}
	if rec.CoreMHz != low {
		t.Fatalf("kernel ran at %d MHz, want pre-set %d", rec.CoreMHz, low)
	}
}

func TestSubmitRejectsEmptyCommandGroup(t *testing.T) {
	q := NewQueue(NewDevice(hw.V100()))
	if _, err := q.Submit(func(h *Handler) {}); err == nil {
		t.Fatal("empty command group accepted")
	}
}

func TestSubmitRejectsDoubleParallelFor(t *testing.T) {
	q := NewQueue(NewDevice(hw.V100()))
	k := saxpyKernel(t)
	args, _ := saxpyArgs(16)
	_, err := q.Submit(func(h *Handler) {
		h.ParallelFor(16, k, args)
		h.ParallelFor(16, k, args)
	})
	if err == nil {
		t.Fatal("double ParallelFor accepted")
	}
}

func TestSubmitRejectsNonPositiveRange(t *testing.T) {
	q := NewQueue(NewDevice(hw.V100()))
	k := saxpyKernel(t)
	args, _ := saxpyArgs(16)
	if _, err := q.Submit(func(h *Handler) { h.ParallelFor(0, k, args) }); err == nil {
		t.Fatal("zero-range launch accepted")
	}
}

func TestKernelErrorSurfacesThroughEvent(t *testing.T) {
	q := NewQueue(NewDevice(hw.V100()))
	k := saxpyKernel(t)
	// Missing buffer binding: interpreter must fail, event must carry it.
	ev, err := q.Submit(func(h *Handler) {
		h.ParallelFor(16, k, kernelir.Args{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err == nil {
		t.Fatal("missing bindings did not surface an error")
	}
}

func TestQueueWaitWithNoSubmissions(t *testing.T) {
	q := NewQueue(NewDevice(hw.V100()))
	q.Wait() // must not block or panic
}

func TestConcurrentSubmitters(t *testing.T) {
	q := NewQueue(NewDevice(hw.V100()))
	k := saxpyKernel(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				args, _ := saxpyArgs(512)
				ev, err := q.Submit(func(h *Handler) { h.ParallelFor(512, k, args) })
				if err != nil {
					t.Error(err)
					return
				}
				if err := ev.Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := q.Device().HW().KernelCount(); n != 40 {
		t.Fatalf("kernel count %d, want 40", n)
	}
}

func TestTwoQueuesShareOneDeviceTimeline(t *testing.T) {
	dev := NewDevice(hw.V100())
	q1 := NewQueue(dev)
	q2 := NewQueue(dev)
	k := saxpyKernel(t)
	args1, _ := saxpyArgs(2048)
	args2, _ := saxpyArgs(2048)
	ev1, err := q1.Submit(func(h *Handler) { h.ParallelFor(2048, k, args1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := ev1.Wait(); err != nil {
		t.Fatal(err)
	}
	ev2, err := q2.Submit(func(h *Handler) { h.ParallelFor(2048, k, args2) })
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := ev2.Profiling()
	if err != nil {
		t.Fatal(err)
	}
	rec1, _ := ev1.Profiling()
	if rec2.Start < rec1.End {
		t.Fatal("kernels on two queues overlapped on one device")
	}
}

func TestInOrderQueueIgnoresWaitRace(t *testing.T) {
	// Wait on an in-order queue returns only after the last submission.
	dev := NewDevice(hw.V100())
	q := NewQueue(dev)
	k := saxpyKernel(t)
	for i := 0; i < 5; i++ {
		args, _ := saxpyArgs(2048)
		if _, err := q.Submit(func(h *Handler) { h.ParallelFor(2048, k, args) }); err != nil {
			t.Fatal(err)
		}
	}
	q.Wait()
	if n := dev.HW().KernelCount(); n != 5 {
		t.Fatalf("kernel count %d after Wait, want 5", n)
	}
}

func TestParallelFor2D(t *testing.T) {
	dev := NewDevice(hw.V100())
	q := NewQueue(dev)
	b := kernelir.NewBuilder("tag2d")
	out := b.BufferF32("out", kernelir.Write)
	gid := b.GlobalID()
	_, y := b.GlobalID2()
	b.StoreF(out, gid, b.IntToFloat(y))
	k := b.MustBuild()

	const nx, ny = 16, 4
	buf := make([]float32, nx*ny)
	ev, err := q.Submit(func(h *Handler) {
		h.ParallelFor2D(nx, ny, k, kernelir.Args{F32: map[string][]float32{"out": buf}})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	for yy := 0; yy < ny; yy++ {
		for xx := 0; xx < nx; xx++ {
			if buf[yy*nx+xx] != float32(yy) {
				t.Fatalf("row %d col %d = %v", yy, xx, buf[yy*nx+xx])
			}
		}
	}
	rec, _ := ev.Profiling()
	if rec.Name != "tag2d" {
		t.Fatalf("record name %q", rec.Name)
	}
}
