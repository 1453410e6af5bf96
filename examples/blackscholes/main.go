// Black-Scholes energy tradeoffs: the Listing-3 flow — train the energy
// models, then submit the same option-pricing kernel once per energy
// target (MIN_EDP, MIN_ED2P, ES_x, PL_x) and compare the measured energy
// and time against the default configuration. This walks the whole
// SYnergy pipeline: compiler feature extraction → model inference →
// per-kernel frequency scaling → fine-grained energy profiling.
//
// Run with: go run ./examples/blackscholes
package main

import (
	"fmt"
	"log"

	"synergy/internal/benchsuite"
	"synergy/internal/core"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/model"
	"synergy/internal/power"
	"synergy/internal/sycl"
)

func main() {
	log.SetFlags(0)
	spec := hw.V100()

	// Train the four per-device models on the micro-benchmark suite
	// (the deployment step of §3.2).
	fmt.Println("training energy models on the micro-benchmark suite...")
	advisor, err := model.DefaultAdvisor(spec, 4)
	if err != nil {
		log.Fatal(err)
	}

	bench, err := benchsuite.ByName("black_scholes")
	if err != nil {
		log.Fatal(err)
	}
	inst, err := bench.NewInstance(1 << 12)
	if err != nil {
		log.Fatal(err)
	}

	dev := sycl.NewDevice(spec)
	pm, err := power.NewPrivilegedManager(dev.HW())
	if err != nil {
		log.Fatal(err)
	}
	q := core.NewQueue(dev, pm)
	q.SetAdvisor(advisor)
	q.SetFunctionalCap(1 << 12) // virtual launch is large; compute a prefix

	const virtualItems = 1 << 24
	run := func(submit func(cg sycl.CommandGroup) (*sycl.Event, error)) (timeSec, energyJ float64) {
		ev, err := submit(func(h *sycl.Handler) {
			h.ParallelFor(virtualItems, bench.Kernel, inst.Args)
		})
		if err != nil {
			log.Fatal(err)
		}
		rec, err := ev.Profiling()
		if err != nil {
			log.Fatal(err)
		}
		return rec.End - rec.Start, rec.EnergyJ
	}

	// Baseline: default application clocks.
	baseT, baseE := run(q.Submit)
	fmt.Printf("\n%-10s %9s %11s %9s %9s\n", "target", "time(ms)", "energy(J)", "saving%", "loss%")
	fmt.Printf("%-10s %9.2f %11.3f %9s %9s\n", "default", 1e3*baseT, baseE, "-", "-")

	for _, tgt := range []metrics.Target{
		metrics.MinEDP, metrics.MinED2P,
		metrics.ES(25), metrics.ES(50), metrics.ES(75),
		metrics.PL(25), metrics.PL(50), metrics.PL(75),
	} {
		tgt := tgt
		t, e := run(func(cg sycl.CommandGroup) (*sycl.Event, error) {
			return q.SubmitWithTarget(tgt, cg)
		})
		fmt.Printf("%-10s %9.2f %11.3f %9.1f %9.1f\n", tgt.String(), 1e3*t, e,
			100*(1-e/baseE), 100*(t/baseT-1))
	}

	if err := inst.Verify(); err != nil {
		// The functional cap computes only a prefix; verify that prefix.
		fmt.Printf("\nnote: %v (expected beyond the functional cap)\n", err)
	} else {
		fmt.Println("\noutput verified against the reference prices")
	}
}
