// Command synergy-place runs the joint (device, frequency) placement
// search over a heterogeneous fleet: for each benchmark it builds the
// full device × frequency grid from ground-truth sweeps, applies the
// fleet power budget, and selects the energy-optimal configuration for
// the requested target.
//
// Usage:
//
//	synergy-place -fleet h100,xeon8480,alveo -budget 330 -target ES_50
//	synergy-place -bench matmul -target MIN_ENERGY -json
//	synergy-place -predict -stride 8 -algo Linear
//	synergy-place -crossval
//
// With -predict the per-device models are trained on the micro-benchmark
// suite and the predicted placement is reported next to the ground-truth
// one. With -crossval every placement carries a static-vs-sweep roofline
// cross-check and the command exits non-zero on any disagreement.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"synergy/internal/benchsuite"
	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/model"
	"synergy/internal/placement"
	"synergy/internal/sweep"
)

// result is the JSON output row for one benchmark.
type result struct {
	Benchmark string                 `json:"benchmark"`
	Placement placement.Placement    `json:"placement"`
	Predicted *placement.Placement   `json:"predicted,omitempty"`
	CrossVal  []placement.CrossCheck `json:"crossval,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("synergy-place: ")
	fleetArg := flag.String("fleet", "h100,xeon8480,alveo", "comma-separated fleet device list ("+strings.Join(hw.BuiltinNames(), ", ")+")")
	budget := flag.Float64("budget", 330, "fleet power budget in watts (0 = unconstrained)")
	benchArg := flag.String("bench", "", "benchmark name (empty = whole suite)")
	targetArg := flag.String("target", "ES_50", "energy target (MAX_PERF, MIN_ENERGY, MIN_EDP, MIN_ED2P, ES_x, PL_x)")
	predict := flag.Bool("predict", false, "also train per-device models and report the predicted placement")
	stride := flag.Int("stride", 8, "training-sweep frequency stride with -predict")
	algo := flag.String("algo", model.AlgoLinear, "training algorithm with -predict")
	crossval := flag.Bool("crossval", false, "cross-check static roofline vs sweep per device; exit non-zero on disagreement")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON")
	flag.Parse()

	target, err := metrics.ParseTarget(*targetArg)
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := hw.FleetFromNames(strings.Split(*fleetArg, ","), hw.Budget{PowerW: *budget})
	if err != nil {
		log.Fatal(err)
	}

	var benches []*benchsuite.Benchmark
	if *benchArg == "" {
		benches = benchsuite.All()
	} else {
		b, err := benchsuite.ByName(*benchArg)
		if err != nil {
			log.Fatal(err)
		}
		benches = []*benchsuite.Benchmark{b}
	}

	var preds []*model.Predictor
	if *predict {
		preds, err = trainPredictors(fleet, *stride, *algo)
		if err != nil {
			log.Fatal(err)
		}
	}

	results, err := place(fleet, benches, target, preds, *crossval)
	if err != nil {
		log.Fatal(err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(results); err != nil {
			log.Fatal(err)
		}
	} else {
		render(fleet, target, results, *predict)
	}

	if *crossval {
		bad := 0
		for _, r := range results {
			for _, c := range placement.Disagreements(r.CrossVal) {
				bad++
				fmt.Fprintf(os.Stderr, "crossval: %s on %s: static %v (alpha %.3f) vs sweep %v (alpha %.3f)\n",
					r.Benchmark, c.Device, c.StaticLabel, c.StaticAlpha, c.SweepLabel, c.SweepAlpha)
			}
		}
		if bad > 0 {
			log.Fatalf("crossval: %d roofline disagreements", bad)
		}
	}
}

// place selects the ground-truth placement of every benchmark — the
// sweeps fan out over the shared engine's pool — and, with predictors,
// the predicted one. Predictor sessions are not safe for concurrent
// use, so the predicted grids are built serially afterwards.
func place(fleet *hw.Fleet, benches []*benchsuite.Benchmark, target metrics.Target, preds []*model.Predictor, crossval bool) ([]result, error) {
	eng := sweep.Shared()
	results := make([]result, len(benches))
	err := eng.ForEach(len(benches), func(i int) error {
		bm := benches[i]
		g, err := placement.BuildGroundTruth(eng, fleet, bm.Kernel, bm.CharItems)
		if err != nil {
			return err
		}
		p, err := g.Select(target)
		if err != nil {
			return fmt.Errorf("%s: %w", bm.Name, err)
		}
		results[i] = result{Benchmark: bm.Name, Placement: p}
		if crossval {
			checks, err := placement.CrossValidate(eng, fleet, bm.Kernel, bm.CharItems)
			if err != nil {
				return err
			}
			results[i].CrossVal = checks
		}
		return nil
	})
	if err != nil || preds == nil {
		return results, err
	}
	for i, bm := range benches {
		v, err := features.Extract(bm.Kernel)
		if err != nil {
			return nil, err
		}
		pg, err := placement.BuildPredicted(fleet, preds, v)
		if err != nil {
			return nil, err
		}
		pp, err := pg.Select(target)
		if err != nil {
			return nil, fmt.Errorf("%s (predicted): %w", bm.Name, err)
		}
		results[i].Predicted = &pp
	}
	return results, nil
}

// trainPredictors fits one model bundle per fleet device on the
// micro-benchmark suite, sweeping devices through the shared engine.
func trainPredictors(fleet *hw.Fleet, stride int, algo string) ([]*model.Predictor, error) {
	preds := make([]*model.Predictor, len(fleet.Devices))
	for i, fd := range fleet.Devices {
		m, err := model.TrainDefault(fd.Spec, algo, stride)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fd.Key, err)
		}
		p, err := m.NewPredictor()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fd.Key, err)
		}
		preds[i] = p
	}
	return preds, nil
}

func render(fleet *hw.Fleet, target metrics.Target, results []result, predicted bool) {
	fmt.Printf("fleet %s under %s, target %s\n", fleet.Name, fleet.Budget, target)
	header := "%-14s %-9s %8s %7s %7s %8s"
	fmt.Printf(header+"\n", "benchmark", "device", "freqMHz", "ES%", "PL%", "fleetW")
	if predicted {
		fmt.Printf("%55s  %s\n", "", "(predicted device@freq)")
	}
	hits := 0
	for _, r := range results {
		p := r.Placement
		line := fmt.Sprintf(header, r.Benchmark, p.Device, fmt.Sprintf("%d", p.FreqMHz),
			fmt.Sprintf("%.1f", p.ESPct), fmt.Sprintf("%.1f", p.PLPct),
			fmt.Sprintf("%.0f", p.FleetPowerW))
		if r.Predicted != nil {
			mark := " "
			if r.Predicted.Device == p.Device && r.Predicted.FreqMHz == p.FreqMHz {
				mark = "="
				hits++
			}
			line += fmt.Sprintf("  %s %s@%d", mark, r.Predicted.Device, r.Predicted.FreqMHz)
		}
		fmt.Println(line)
	}
	if predicted && len(results) > 0 {
		fmt.Printf("predicted placement exact-match rate: %d/%d\n", hits, len(results))
	}
}
