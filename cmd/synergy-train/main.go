// Command synergy-train runs the training phase of §6.1 for one device:
// it sweeps the micro-benchmark suite across the frequency table, builds
// the four single-target models with every applicable algorithm, and
// reports in-sample fit quality. With -json it dumps the training set
// for external analysis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"synergy/internal/hw"
	"synergy/internal/ml"
	"synergy/internal/model"
	"synergy/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("synergy-train: ")
	device := flag.String("device", "v100", "target device ("+strings.Join(hw.BuiltinNames(), ", ")+")")
	stride := flag.Int("stride", 4, "frequency-table stride for the training sweep")
	jsonOut := flag.String("json", "", "write the training set to this file as JSON")
	saveModels := flag.String("save", "", "write the trained model bundle (chosen with -algo) to this file")
	algo := flag.String("algo", model.AlgoForest, "algorithm for the saved bundle")
	flag.Parse()

	spec, err := hw.SpecByName(*device)
	if err != nil {
		log.Fatal(err)
	}
	ts, err := model.DefaultTrainingSet(spec, *stride)
	if err != nil {
		log.Fatal(err)
	}
	kernels := map[string]bool{}
	for _, smp := range ts.Samples {
		kernels[smp.Kernel] = true
	}
	fmt.Printf("Training on %s: %d micro-benchmarks, frequency stride %d\n",
		spec.Name, len(kernels), *stride)
	fmt.Printf("Collected %d samples (T = (k, f, e, t, edp, ed2p)) via %d pooled sweeps\n",
		len(ts.Samples), sweep.Shared().Evaluations())

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ts); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Training set written to %s\n", *jsonOut)
	}

	if *saveModels != "" {
		m, err := model.Train(spec, ts, *algo)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*saveModels)
		if err != nil {
			log.Fatal(err)
		}
		if err := model.SaveModels(f, m); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s model bundle written to %s\n", *algo, *saveModels)
	}

	fmt.Println("\nIn-sample fit (R^2) per algorithm and target:")
	fmt.Printf("%-14s %10s %10s %10s %10s\n", "Algorithm", "time", "energy", "EDP", "ED2P")
	for _, algo := range model.AllAlgos {
		m, err := model.Train(spec, ts, algo)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %10.4f %10.4f %10.4f %10.4f\n", algo,
			fitR2(ts, m, selTime), fitR2(ts, m, selEnergy),
			fitR2(ts, m, selEDP), fitR2(ts, m, selED2P))
	}
}

type targetSel int

const (
	selTime targetSel = iota
	selEnergy
	selEDP
	selED2P
)

// fitR2 measures in-sample R^2 of one trained model by re-predicting the
// training samples through the public prediction path.
func fitR2(ts *model.TrainingSet, m *model.Models, sel targetSel) float64 {
	byKernel := map[string][]int{}
	for i, s := range ts.Samples {
		byKernel[s.Kernel] = append(byKernel[s.Kernel], i)
	}
	var actual, pred []float64
	for _, idxs := range byKernel {
		first := ts.Samples[idxs[0]]
		curve := m.PredictCurve(first.Features)
		byFreq := map[int]model.PredictedPoint{}
		for _, p := range curve {
			byFreq[p.FreqMHz] = p
		}
		for _, i := range idxs {
			s := ts.Samples[i]
			p, ok := byFreq[s.FreqMHz]
			if !ok {
				continue
			}
			switch sel {
			case selTime:
				actual = append(actual, s.TimeNs)
				pred = append(pred, p.TimeNs)
			case selEnergy:
				actual = append(actual, s.EnergyNanoJ)
				pred = append(pred, p.EnergyNanoJ)
			case selEDP:
				actual = append(actual, s.EDP())
				pred = append(pred, p.EDPPred)
			case selED2P:
				actual = append(actual, s.ED2P())
				pred = append(pred, p.ED2PPredicted)
			}
		}
	}
	r2, err := ml.R2(actual, pred)
	if err != nil {
		return 0
	}
	return r2
}
