package model

import (
	"fmt"
	"math"

	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/metrics"
	"synergy/internal/ml"
	"synergy/internal/sweep"
)

// BenchCase is one evaluation subject: a benchmark kernel and its
// characterisation launch size.
type BenchCase struct {
	Name   string
	Kernel *kernelir.Kernel
	Items  int64
}

// PredictionError is one Fig. 9 data point: for a benchmark, target and
// algorithm, the absolute percentage error between the objective value
// at the predicted frequency and at the actual optimal frequency — the
// error definition of §8.3 (both values come from the ground-truth
// sweep; what is predicted is the frequency).
type PredictionError struct {
	Bench      string
	Target     metrics.Target
	Algo       string
	PredFreq   int
	ActualFreq int
	APE        float64
	// ActualObj and PredObj are the objective values (per-item units).
	ActualObj, PredObj float64
}

// EvaluateModels computes prediction errors for every (benchmark,
// target) pair with one trained model bundle.
func EvaluateModels(m *Models, cases []BenchCase, targets []metrics.Target) ([]PredictionError, error) {
	// Warm the sweep engine across the cases: whole-sweep parallelism on
	// the first pass, pure cache hits when BuildTable2 re-evaluates the
	// same cases for each algorithm.
	if err := sweep.ForEach(len(cases), func(i int) error {
		_, err := sweep.GroundTruth(m.Spec, cases[i].Kernel, cases[i].Items)
		return err
	}); err != nil {
		return nil, err
	}
	var out []PredictionError
	for _, c := range cases {
		gt, err := sweep.GroundTruth(m.Spec, c.Kernel, c.Items)
		if err != nil {
			return nil, err
		}
		v, err := features.Extract(c.Kernel)
		if err != nil {
			return nil, err
		}
		for _, tgt := range targets {
			actual, err := gt.Select(tgt)
			if err != nil {
				return nil, err
			}
			predFreq, err := m.SearchFrequency(v, tgt)
			if err != nil {
				return nil, err
			}
			predPoint, ok := gt.PointAt(predFreq)
			if !ok {
				return nil, fmt.Errorf("model: predicted frequency %d not in ground truth", predFreq)
			}
			actualObj := metrics.ObjectiveValue(tgt, actual)
			predObj := metrics.ObjectiveValue(tgt, predPoint)
			ape := 0.0
			if actualObj != 0 {
				ape = math.Abs(predObj-actualObj) / math.Abs(actualObj)
			}
			out = append(out, PredictionError{
				Bench: c.Name, Target: tgt, Algo: m.Algo,
				PredFreq: predFreq, ActualFreq: actual.FreqMHz,
				APE: ape, ActualObj: actualObj, PredObj: predObj,
			})
		}
	}
	return out, nil
}

// timeFamily reports whether a target is driven by the performance
// model (trained with Linear/Lasso/RandomForest per §8.3); the rest are
// driven by the energy-family models (Linear/RandomForest/SVR_RBF).
func timeFamily(t metrics.Target) bool {
	return t.Kind == metrics.KindMaxPerf || t.Kind == metrics.KindPL
}

// AlgosFor returns the algorithms the paper evaluates for a target.
func AlgosFor(t metrics.Target) []string {
	if timeFamily(t) {
		return TimeAlgos
	}
	return EnergyAlgos
}

// Cell is one Table-2 entry. Skipped counts benchmark cases whose
// actual objective value was zero: their percentage error is undefined,
// so they are excluded from the MAPE mean (ml.MAPE) instead of printing
// +Inf in the error tables.
type Cell struct {
	RMSE, MAPE float64
	Skipped    int
	Computed   bool
}

// Table2Row aggregates prediction errors per objective and algorithm,
// reproducing the layout of Table 2.
type Table2Row struct {
	Target metrics.Target
	Cells  map[string]Cell // algo -> errors
	Best   string          // algorithm with the lowest MAPE
}

// AllAlgos is the Table-2 column order.
var AllAlgos = []string{AlgoLinear, AlgoLasso, AlgoForest, AlgoSVR}

// BuildTable2 trains one model bundle per algorithm on the training set
// and aggregates per-objective RMSE and MAPE over the benchmark cases.
// It also returns the raw per-benchmark errors (the Fig. 9 data).
func BuildTable2(spec *hw.Spec, ts *TrainingSet, cases []BenchCase, targets []metrics.Target) ([]Table2Row, []PredictionError, error) {
	byAlgo := map[string][]PredictionError{}
	for _, algo := range AllAlgos {
		// Which targets does this algorithm participate in?
		var tgts []metrics.Target
		for _, t := range targets {
			for _, a := range AlgosFor(t) {
				if a == algo {
					tgts = append(tgts, t)
					break
				}
			}
		}
		if len(tgts) == 0 {
			continue
		}
		m, err := Train(spec, ts, algo)
		if err != nil {
			return nil, nil, err
		}
		errs, err := EvaluateModels(m, cases, tgts)
		if err != nil {
			return nil, nil, err
		}
		byAlgo[algo] = errs
	}

	rows, all := AggregateTable2(byAlgo, targets)
	return rows, all, nil
}

// AggregateTable2 folds per-benchmark prediction errors into Table-2
// rows. Error statistics go through ml.MAPE / ml.RMSE, so a benchmark
// whose actual objective value is zero is skipped (and counted in
// Cell.Skipped) rather than poisoning the whole mean with +Inf.
func AggregateTable2(byAlgo map[string][]PredictionError, targets []metrics.Target) ([]Table2Row, []PredictionError) {
	var rows []Table2Row
	var all []PredictionError
	for _, tgt := range targets {
		row := Table2Row{Target: tgt, Cells: map[string]Cell{}}
		bestMAPE := math.Inf(1)
		for _, algo := range AllAlgos {
			var actual, pred []float64
			for _, e := range byAlgo[algo] {
				if e.Target == tgt {
					actual = append(actual, e.ActualObj)
					pred = append(pred, e.PredObj)
					all = append(all, e)
				}
			}
			if len(actual) == 0 {
				continue
			}
			mape, skipped, err := ml.MAPE(actual, pred)
			if err != nil {
				// Every actual value was zero — no finite percentage
				// error exists; leave the cell uncomputed.
				row.Cells[algo] = Cell{Skipped: skipped}
				continue
			}
			rmse, err := ml.RMSE(actual, pred)
			if err != nil {
				row.Cells[algo] = Cell{Skipped: skipped}
				continue
			}
			row.Cells[algo] = Cell{RMSE: rmse, MAPE: mape, Skipped: skipped, Computed: true}
			if mape < bestMAPE {
				bestMAPE = mape
				row.Best = algo
			}
		}
		rows = append(rows, row)
	}
	return rows, all
}
