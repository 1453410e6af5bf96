// Online-governor baseline: tune the median-filter kernel's frequency
// with a model-free hill-climbing DVFS controller and compare the
// trajectory against SYnergy's one-shot static prediction. The governor
// needs no training phase but pays an exploration cost on every new
// kernel — the tradeoff that motivates the paper's static approach.
//
// Run with: go run ./examples/governor
package main

import (
	"fmt"
	"log"

	"synergy/internal/benchsuite"
	"synergy/internal/governor"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/model"
	"synergy/internal/sweep"
)

func main() {
	log.SetFlags(0)
	spec := hw.V100()
	bench, err := benchsuite.ByName("median")
	if err != nil {
		log.Fatal(err)
	}
	gt, err := sweep.GroundTruth(spec, bench.Kernel, bench.CharItems)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := gt.Select(metrics.MinEDP)
	if err != nil {
		log.Fatal(err)
	}

	// SYnergy: train once, predict once.
	adv, err := model.DefaultAdvisor(spec, 8)
	if err != nil {
		log.Fatal(err)
	}
	staticFreq, err := adv.AdviseCoreFreq(bench.Kernel, int(bench.CharItems), metrics.MinEDP)
	if err != nil {
		log.Fatal(err)
	}
	staticPoint, _ := gt.PointAt(staticFreq)

	// Governor: learn online from launch feedback.
	gov, err := governor.New(spec, metrics.MinEDP)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("median on %s — MIN_EDP (oracle optimum: %d MHz, EDP %.4g)\n\n",
		spec.Name, opt.FreqMHz, opt.EDP())
	fmt.Printf("%8s %9s %10s %10s\n", "launch", "freqMHz", "EDP", "vs opt%")
	optEDP := opt.EDP()
	for i := 1; ; i++ {
		f := gov.Decide("median")
		p, ok := gt.PointAt(f)
		if !ok {
			log.Fatalf("governor chose unsupported frequency %d", f)
		}
		if err := gov.Observe("median", p.TimeSec, p.EnergyJ); err != nil {
			log.Fatal(err)
		}
		if i <= 10 || gov.Settled("median") {
			fmt.Printf("%8d %9d %10.4g %9.1f%%\n", i, f, p.EDP(), 100*(p.EDP()/optEDP-1))
		}
		if gov.Settled("median") || i >= 200 {
			fmt.Printf("\ngovernor settled after %d launches\n", gov.Launches("median"))
			break
		}
	}
	fmt.Printf("static SYnergy prediction: %d MHz, EDP %.4g (%.1f%% vs opt) — zero exploration launches\n",
		staticFreq, staticPoint.EDP(), 100*(staticPoint.EDP()/optEDP-1))
}
