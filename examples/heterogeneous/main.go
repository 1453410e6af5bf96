// Heterogeneous portability: the same SYnergy code path — queue,
// frequency scaling, energy profiling, ES_50 target selection — runs
// unchanged on an NVIDIA V100 (NVML), an AMD MI100 (ROCm SMI) and an
// Intel Xeon package (RAPL/cpufreq), closing the portability gap the
// paper describes in §2.1.
//
// Run with: go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"

	"synergy/internal/benchsuite"
	"synergy/internal/core"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/power"
	"synergy/internal/sweep"
	"synergy/internal/sycl"
)

func main() {
	log.SetFlags(0)
	bench, err := benchsuite.ByName("black_scholes")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-18s %-8s %10s %10s %12s %9s %9s\n",
		"device", "backend", "baseMHz", "ES50MHz", "energy(J)", "saving%", "loss%")
	for _, spec := range []*hw.Spec{hw.V100(), hw.MI100(), hw.Xeon8160()} {
		dev := sycl.NewDevice(spec)
		pm, err := power.NewPrivilegedManager(dev.HW())
		if err != nil {
			log.Fatal(err)
		}
		q := core.NewQueue(dev, pm)
		q.SetFunctionalCap(1 << 12)

		inst, err := bench.NewInstance(1 << 12)
		if err != nil {
			log.Fatal(err)
		}
		const items = 1 << 24
		launch := func() (float64, float64, int) {
			ev, err := q.Submit(func(h *sycl.Handler) {
				h.ParallelFor(items, bench.Kernel, inst.Args)
			})
			if err != nil {
				log.Fatal(err)
			}
			rec, err := ev.Profiling()
			if err != nil {
				log.Fatal(err)
			}
			return rec.End - rec.Start, rec.EnergyJ, rec.CoreMHz
		}

		// Baseline at default clocks.
		baseT, baseE, baseF := launch()

		// Ground-truth ES_50 selection for this device (the per-device
		// energy models of §6 would predict this; here we show the
		// portable mechanism with the exact selection).
		gt, err := sweep.GroundTruth(spec, bench.Kernel, items)
		if err != nil {
			log.Fatal(err)
		}
		sel, err := gt.Select(metrics.ES(50))
		if err != nil {
			log.Fatal(err)
		}
		if err := pm.SetCoreFreq(sel.FreqMHz); err != nil {
			log.Fatal(err)
		}
		esT, esE, esF := launch()
		if esF != sel.FreqMHz {
			log.Fatalf("%s: ran at %d, wanted %d", spec.Name, esF, sel.FreqMHz)
		}
		fmt.Printf("%-18s %-8s %10d %10d %12.3f %9.1f %9.1f\n",
			spec.Name, pm.VendorName(), baseF, esF, esE,
			100*(1-esE/baseE), 100*(esT/baseT-1))
		if err := pm.ResetCoreFreq(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nsame API, three vendor backends (NVML, ROCm SMI, RAPL/cpufreq)")
}
