// Pareto explorer: characterise a selection of the 23-benchmark suite on
// the V100 and the MI100, printing the speedup/normalised-energy Pareto
// fronts (the Figs. 2/7/8 analysis) and what each energy target selects.
//
// Run with: go run ./examples/pareto [-device v100|a100|mi100]
package main

import (
	"flag"
	"fmt"
	"log"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/sweep"
)

func main() {
	log.SetFlags(0)
	device := flag.String("device", "v100", "device to characterise on")
	flag.Parse()

	spec, err := hw.SpecByName(*device)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Pareto exploration on %s (baseline %d MHz)\n\n", spec.Name, spec.BaselineCoreMHz())

	for _, name := range []string{"matmul", "sobel3", "median", "lin_reg_coeff", "black_scholes", "nbody"} {
		b, err := benchsuite.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		gt, err := sweep.GroundTruth(spec, b.Kernel, b.CharItems)
		if err != nil {
			log.Fatal(err)
		}
		base := gt.BaselinePoint()
		front := gt.ParetoFront()

		fmt.Printf("%s — Pareto front (%d of %d configurations):\n", name, len(front), len(gt.Points))
		fmt.Printf("  %8s %9s %12s\n", "freqMHz", "speedup", "normEnergy")
		stride := len(front)/8 + 1
		for i := 0; i < len(front); i += stride {
			p := front[i]
			fmt.Printf("  %8d %9.3f %12.3f\n", p.FreqMHz, base.TimeSec/p.TimeSec, p.EnergyJ/base.EnergyJ)
		}

		for _, tgt := range []metrics.Target{metrics.MinEDP, metrics.ES(50), metrics.PL(50)} {
			p, err := gt.Select(tgt)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-8s -> %4d MHz: %5.1f%% energy saving, %5.1f%% perf loss\n",
				tgt, p.FreqMHz, 100*(1-p.EnergyJ/base.EnergyJ), 100*(p.TimeSec/base.TimeSec-1))
		}
		fmt.Println()
	}
}
