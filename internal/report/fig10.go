package report

import (
	"fmt"
	"strings"

	"synergy/internal/apps"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/model"
	"synergy/internal/mpi"
	"synergy/internal/sweep"
)

// Fig10Targets are the per-kernel energy targets plotted in Fig. 10
// (plus the implicit default-frequency baseline).
var Fig10Targets = []metrics.Target{
	metrics.MinEDP, metrics.MinED2P,
	metrics.ES(25), metrics.ES(50), metrics.ES(75),
	metrics.PL(25), metrics.PL(50), metrics.PL(75),
}

// Fig10Point is one (configuration, scale) measurement.
type Fig10Point struct {
	App     string
	Target  string // "default" for the baseline
	GPUs    int
	TimeSec float64
	EnergyJ float64
	// SavingPct is the energy saving vs the same-scale baseline.
	SavingPct float64
}

// Fig10Config parameterises the scaling study.
type Fig10Config struct {
	Spec        *hw.Spec
	NodeCounts  []int // e.g. {1, 2, 4, 8, 16}
	GPUsPerNode int
	LocalNx     int
	LocalNy     int
	Steps       int
	StateRows   int
	TrainStride int
	// FunctionalCap bounds interpreted work-items per launch.
	FunctionalCap int
}

// DefaultFig10Config mirrors the paper's setup: up to 16 nodes × 4 V100
// GPUs, weak scaling.
func DefaultFig10Config() Fig10Config {
	return Fig10Config{
		Spec:          hw.V100(),
		NodeCounts:    []int{1, 2, 4, 8, 16},
		GPUsPerNode:   4,
		LocalNx:       16384,
		LocalNy:       16384,
		Steps:         10,
		StateRows:     8,
		TrainStride:   8,
		FunctionalCap: 512,
	}
}

// BuildFig10 runs the weak-scaling energy study for both applications.
func BuildFig10(cfg Fig10Config) ([]Fig10Point, error) {
	adv, err := model.DefaultAdvisor(cfg.Spec, cfg.TrainStride)
	if err != nil {
		return nil, err
	}
	items := cfg.LocalNx * cfg.LocalNy

	var out []Fig10Point
	for _, app := range []*apps.App{apps.NewCloverLeaf(), apps.NewMiniWeather()} {
		// Plans are per-kernel, independent of scale — and independent of
		// each other, so they are built concurrently on the sweep pool
		// (model prediction is read-only after training).
		byTarget := make([]apps.FreqPlan, len(Fig10Targets))
		err := sweep.ForEach(len(Fig10Targets), func(i int) error {
			plan, err := apps.PlanFromAdvisor(app, adv, items, Fig10Targets[i])
			if err != nil {
				return err
			}
			byTarget[i] = plan
			return nil
		})
		if err != nil {
			return nil, err
		}
		plans := map[string]apps.FreqPlan{}
		for i, tgt := range Fig10Targets {
			plans[tgt.String()] = byTarget[i]
		}
		for _, nodes := range cfg.NodeCounts {
			rc := apps.RunConfig{
				Spec:          cfg.Spec,
				Nodes:         nodes,
				GPUsPerNode:   cfg.GPUsPerNode,
				LocalNx:       cfg.LocalNx,
				LocalNy:       cfg.LocalNy,
				Steps:         cfg.Steps,
				StateRows:     cfg.StateRows,
				FunctionalCap: cfg.FunctionalCap,
				Net:           mpi.EDRFabric(),
			}
			base, err := apps.Run(app, rc)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig10Point{
				App: app.Name, Target: "default", GPUs: base.Ranks,
				TimeSec: base.TimeSec, EnergyJ: base.EnergyJ,
			})
			for _, tgt := range Fig10Targets {
				rc.Plan = plans[tgt.String()]
				res, err := apps.Run(app, rc)
				if err != nil {
					return nil, err
				}
				out = append(out, Fig10Point{
					App: app.Name, Target: tgt.String(), GPUs: res.Ranks,
					TimeSec: res.TimeSec, EnergyJ: res.EnergyJ,
					SavingPct: 100 * (1 - res.EnergyJ/base.EnergyJ),
				})
			}
		}
	}
	return out, nil
}

// RenderFig10 prints the scaling series.
func RenderFig10(points []Fig10Point) string {
	var b strings.Builder
	b.WriteString("Figure 10: real-world applications energy scaling (weak scaling)\n")
	t := &table{header: []string{"App", "Target", "GPUs", "Time(s)", "Energy(J)", "Saving%"}}
	for _, p := range points {
		saving := "-"
		if p.Target != "default" {
			saving = fmt.Sprintf("%.1f", p.SavingPct)
		}
		t.addRow(p.App, p.Target, fmt.Sprintf("%d", p.GPUs),
			fmt.Sprintf("%.4f", p.TimeSec), fmt.Sprintf("%.1f", p.EnergyJ), saving)
	}
	b.WriteString(t.String())
	return b.String()
}
