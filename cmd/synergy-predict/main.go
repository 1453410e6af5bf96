// Command synergy-predict runs the full prediction pipeline of §6.2 for
// one benchmark: it trains the per-device models on the micro-benchmark
// suite, extracts the benchmark kernel's static features, predicts the
// optimal frequency for the requested energy target and compares it with
// the ground-truth optimum.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"synergy/internal/benchsuite"
	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/model"
	"synergy/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("synergy-predict: ")
	device := flag.String("device", "v100", "target device ("+strings.Join(hw.BuiltinNames(), ", ")+")")
	benchName := flag.String("bench", "black_scholes", "benchmark kernel to predict for")
	targetArg := flag.String("target", "MIN_EDP", "energy target (MAX_PERF, MIN_ENERGY, MIN_EDP, MIN_ED2P, ES_x, PL_x)")
	algo := flag.String("algo", model.AlgoForest, "model algorithm (Linear, Lasso, RandomForest, SVR_RBF)")
	stride := flag.Int("stride", 4, "training-sweep frequency stride")
	load := flag.String("load", "", "load a trained model bundle (from synergy-train -save) instead of training")
	flag.Parse()

	spec, err := hw.SpecByName(*device)
	if err != nil {
		log.Fatal(err)
	}
	target, err := metrics.ParseTarget(*targetArg)
	if err != nil {
		log.Fatal(err)
	}
	bench, err := benchsuite.ByName(*benchName)
	if err != nil {
		log.Fatal(err)
	}

	var m *model.Models
	if *load != "" {
		if m, err = model.LoadFile(*load); err != nil {
			log.Fatal(err)
		}
		if m.Spec.Name != spec.Name {
			log.Fatalf("bundle is for %s, requested device is %s", m.Spec.Name, spec.Name)
		}
	} else if m, err = model.TrainDefault(spec, *algo, *stride); err != nil {
		log.Fatal(err)
	}

	v, err := features.Extract(bench.Kernel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Kernel %s on %s\n", bench.Name, spec.Name)
	fmt.Printf("  static features: %s\n", v)

	// The §8.3 error analysis for this one (benchmark, target) pair.
	errs, err := model.EvaluateModels(m,
		[]model.BenchCase{{Name: bench.Name, Kernel: bench.Kernel, Items: bench.CharItems}},
		[]metrics.Target{target})
	if err != nil {
		log.Fatal(err)
	}
	e := errs[0]
	gt, err := sweep.GroundTruth(spec, bench.Kernel, bench.CharItems)
	if err != nil {
		log.Fatal(err)
	}
	predPoint, _ := gt.PointAt(e.PredFreq) // EvaluateModels checked it is in the sweep
	fmt.Printf("  target %s (%s model):\n", target, m.Algo)
	fmt.Printf("    predicted frequency: %d MHz\n", e.PredFreq)
	fmt.Printf("    actual optimum:      %d MHz\n", e.ActualFreq)
	fmt.Printf("    objective at prediction vs optimum: %.4g vs %.4g (APE %.2f%%)\n",
		e.PredObj, e.ActualObj, 100*e.APE)
	base := gt.BaselinePoint()
	fmt.Printf("    vs default (%d MHz): energy saving %.1f%%, perf loss %.1f%%\n",
		base.FreqMHz, gt.EnergySavingPct(predPoint), gt.PerfLossPct(predPoint))
}
