// Command synergy-report regenerates the paper's tables and figures
// from the reproduction and prints them as text tables.
//
// Usage:
//
//	synergy-report -fig 1|2|4|5|7|8|9|10
//	synergy-report -table 1|2
//	synergy-report -all
//	synergy-report -fleet h100,xeon8480,alveo -budget 330
//
// The model-based outputs (Fig. 9, Table 2) train on the micro-benchmark
// suite first; -stride trades training-sweep resolution for speed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"synergy/internal/apps"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/model"
	"synergy/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("synergy-report: ")
	fig := flag.Int("fig", 0, "figure number to regenerate (1, 2, 4, 5, 7, 8, 9, 10)")
	tab := flag.Int("table", 0, "table number to regenerate (1, 2)")
	all := flag.Bool("all", false, "regenerate everything")
	ablation := flag.Bool("ablation", false, "run the fine- vs coarse-grained tuning ablation (§2.2)")
	stride := flag.Int("stride", 4, "training-sweep frequency stride for model-based outputs")
	nodes := flag.Int("nodes", 16, "maximum node count for the Fig. 10 scaling study")
	fleetArg := flag.String("fleet", "", "comma-separated device list for the fleet placement report (e.g. h100,xeon8480,alveo)")
	budget := flag.Float64("budget", 0, "fleet power budget in watts for -fleet (0 = unconstrained)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
	flag.Parse()
	jsonMode = *asJSON

	if !*all && *fig == 0 && *tab == 0 && !*ablation && *fleetArg == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *fleetArg != "" {
		fleet, err := hw.FleetFromNames(strings.Split(*fleetArg, ","), hw.Budget{PowerW: *budget})
		if err != nil {
			log.Fatalf("fleet: %v", err)
		}
		rep, err := report.BuildFleetReport(fleet, nil)
		if err != nil {
			log.Fatalf("fleet report: %v", err)
		}
		if err := emit(rep); err != nil {
			log.Fatal(err)
		}
		if !*all && *fig == 0 && *tab == 0 && !*ablation {
			return
		}
	}

	if *ablation {
		if err := runAblation(*stride); err != nil {
			log.Fatalf("ablation: %v", err)
		}
		if !*all && *fig == 0 && *tab == 0 {
			return
		}
	}

	run := func(n int, f func() error) {
		if err := f(); err != nil {
			log.Fatalf("figure/table %d: %v", n, err)
		}
	}

	// Fig. 9 and Table 2 share one model evaluation (training four
	// algorithms and sweeping the whole suite); build it once and reuse —
	// with -all it used to be trained and evaluated twice over.
	var modelEval *report.ModelEvaluation
	evaluation := func() (*report.ModelEvaluation, error) {
		if modelEval != nil {
			return modelEval, nil
		}
		m, err := report.BuildModelEvaluation(hw.V100(), *stride)
		if err != nil {
			return nil, err
		}
		modelEval = m
		return m, nil
	}

	figs := map[int]func() error{
		1: func() error { return emit(report.BuildFig1()) },
		2: func() error { return renderChars(report.BuildFig2, "Figure 2 (V100)") },
		4: func() error {
			f, err := report.BuildFig4()
			if err != nil {
				return err
			}
			return emit(f)
		},
		5: func() error {
			f, err := report.BuildFig5()
			if err != nil {
				return err
			}
			return emit(f)
		},
		7: func() error { return renderChars(report.BuildFig7, "Figure 7 (V100)") },
		8: func() error { return renderChars(report.BuildFig8, "Figure 8 (MI100)") },
		9: func() error {
			m, err := evaluation()
			if err != nil {
				return err
			}
			for _, tgt := range metrics.StandardTargets {
				fmt.Println(m.RenderFig9(tgt))
			}
			return nil
		},
		10: func() error {
			cfg := report.DefaultFig10Config()
			cfg.NodeCounts = nodeCounts(*nodes)
			pts, err := report.BuildFig10(cfg)
			if err != nil {
				return err
			}
			fmt.Println(report.RenderFig10(pts))
			return nil
		},
	}
	tables := map[int]func() error{
		1: func() error {
			t1, err := report.BuildTable1()
			if err != nil {
				return err
			}
			return emit(t1)
		},
		2: func() error {
			m, err := evaluation()
			if err != nil {
				return err
			}
			fmt.Println(m.RenderTable2())
			return nil
		},
	}

	if *all {
		for _, n := range []int{1, 2, 4, 5, 7, 8} {
			run(n, figs[n])
		}
		run(1, tables[1])
		run(2, tables[2])
		run(9, figs[9])
		run(10, figs[10])
		return
	}
	if *fig != 0 {
		f, ok := figs[*fig]
		if !ok {
			log.Fatalf("no builder for figure %d", *fig)
		}
		run(*fig, f)
	}
	if *tab != 0 {
		f, ok := tables[*tab]
		if !ok {
			log.Fatalf("no builder for table %d", *tab)
		}
		run(*tab, f)
	}
}

func renderChars(build func() ([]*report.Characterization, error), title string) error {
	chars, err := build()
	if err != nil {
		return err
	}
	if jsonMode {
		return emit(chars)
	}
	fmt.Println(title)
	for _, c := range chars {
		fmt.Println(c.Render())
	}
	return nil
}

// jsonMode switches output to machine-readable JSON.
var jsonMode bool

// renderer is anything with a text rendering.
type renderer interface{ Render() string }

// emit prints v as JSON in json mode, or via its Render method.
func emit(v any) error {
	if jsonMode {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		return enc.Encode(v)
	}
	if r, ok := v.(renderer); ok {
		fmt.Println(r.Render())
		return nil
	}
	return fmt.Errorf("no text renderer for %T", v)
}

func runAblation(stride int) error {
	spec := hw.V100()
	adv, err := model.DefaultAdvisor(spec, stride)
	if err != nil {
		return err
	}
	for _, app := range []*apps.App{apps.NewCloverLeaf(), apps.NewMiniWeather()} {
		a, err := report.BuildAblation(report.AblationConfig{
			Spec: spec, App: app, Advisor: adv,
			LocalNx: 16384, LocalNy: 16384, Steps: 8,
			StateRows: 8, FunctionalCap: 128, FreqStride: 8,
		})
		if err != nil {
			return err
		}
		fmt.Println(a.Render())
	}
	return nil
}

func nodeCounts(maxNodes int) []int {
	var out []int
	for n := 1; n <= maxNodes; n *= 2 {
		out = append(out, n)
	}
	return out
}
