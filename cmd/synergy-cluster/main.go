// Command synergy-cluster reproduces the multi-node experiment of §8.4
// end to end, including the scheduler layer: it builds a simulated
// Marconi-100-style cluster (nodes of 4 V100 GPUs, nvgpufreq GRES and
// plugin installed), trains the energy models, and for each scale
// submits exclusive SLURM jobs — baseline plus one per energy target —
// whose scripts run the SYCL+MPI application with per-kernel frequency
// scaling under the plugin's temporary privilege window.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"synergy/internal/apps"
	"synergy/internal/core"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/model"
	"synergy/internal/mpi"
	"synergy/internal/slurm"
	"synergy/internal/sweep"
	"synergy/internal/telemetry"
	"synergy/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("synergy-cluster: ")
	appArg := flag.String("app", "both", "application: cloverleaf, miniweather or both")
	maxNodes := flag.Int("nodes", 16, "maximum node count (scales 1, 2, 4, ... up to this)")
	gpusPerNode := flag.Int("gpus", 4, "GPUs per node")
	steps := flag.Int("steps", 10, "timesteps per run")
	nx := flag.Int("nx", 16384, "per-rank virtual grid width")
	ny := flag.Int("ny", 16384, "per-rank virtual grid height")
	stride := flag.Int("stride", 8, "training-sweep frequency stride")
	targetsArg := flag.String("targets", "MIN_EDP,ES_25,ES_50,ES_75,PL_25,PL_50,PL_75",
		"comma-separated energy targets")
	traceOut := flag.String("trace", "", "write a Chrome-trace JSON of the first node's GPU timelines to this file")
	profile := flag.Bool("profile", false, "print the per-kernel energy profile of every run")
	metricsOut := flag.String("metrics-out", "", "write the full telemetry exposition of the experiment to this file")
	flag.Parse()

	// With -metrics-out, one registry observes the whole experiment:
	// scheduler, sweep engine, and (through the run config) every job's
	// governor, fabric and span tree. It also augments -trace with the
	// span hierarchy.
	var reg *telemetry.Registry
	if *metricsOut != "" {
		reg = telemetry.NewRegistry()
		sweep.Shared().SetTelemetry(reg)
	}

	spec := hw.V100()
	var appList []*apps.App
	switch *appArg {
	case "cloverleaf":
		appList = []*apps.App{apps.NewCloverLeaf()}
	case "miniweather":
		appList = []*apps.App{apps.NewMiniWeather()}
	case "both":
		appList = []*apps.App{apps.NewCloverLeaf(), apps.NewMiniWeather()}
	default:
		log.Fatalf("unknown app %q", *appArg)
	}
	var targets []metrics.Target
	for _, s := range strings.Split(*targetsArg, ",") {
		t, err := metrics.ParseTarget(strings.TrimSpace(s))
		if err != nil {
			log.Fatal(err)
		}
		targets = append(targets, t)
	}

	// Build the cluster at the largest scale, with the plugin installed.
	var nodes []*slurm.Node
	for i := 0; i < *maxNodes; i++ {
		nodes = append(nodes, slurm.NewNode(fmt.Sprintf("r%03d", i), spec, *gpusPerNode, slurm.GresNVGpuFreq))
	}
	cluster := slurm.NewCluster(nodes...)
	cluster.RegisterPlugin(&slurm.NVGpuFreqPlugin{Controller: cluster})
	cluster.SetTelemetry(reg)
	fmt.Printf("Cluster: %d nodes x %d %s GPUs, nvgpufreq plugin active\n",
		*maxNodes, *gpusPerNode, spec.Name)

	// Train the per-device models once (§6.1).
	adv, err := model.DefaultAdvisor(spec, *stride)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Energy models trained on the micro-benchmark suite (%d pooled sweeps)\n",
		sweep.Shared().Evaluations())

	defer func() {
		if *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := reg.WriteText(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nTelemetry exposition written to %s\n", *metricsOut)
		}
		if *traceOut == "" {
			return
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		var tds []trace.Device
		for i, g := range nodes[0].GPUs {
			tds = append(tds, trace.Device{Label: fmt.Sprintf("%s/gpu%d", nodes[0].Name, i), Dev: g})
		}
		if err := trace.ExportWith(f, tds, reg.Spans()); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nChrome trace written to %s\n", *traceOut)
	}()

	items := *nx * *ny
	fmt.Printf("\n%-12s %-8s %5s %12s %14s %9s\n", "App", "Target", "GPUs", "Time(s)", "Energy(J)", "Saving%")
	for _, app := range appList {
		plans := map[string]apps.FreqPlan{}
		for _, tgt := range targets {
			plan, err := apps.PlanFromAdvisor(app, adv, items, tgt)
			if err != nil {
				log.Fatal(err)
			}
			plans[tgt.String()] = plan
		}
		for n := 1; n <= *maxNodes; n *= 2 {
			baseline, err := submitRun(cluster, app, spec, n, *gpusPerNode, *nx, *ny, *steps, nil, *profile, reg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-12s %-8s %5d %12.4f %14.1f %9s\n",
				app.Name, "default", baseline.Ranks, baseline.TimeSec, baseline.EnergyJ, "-")
			for _, tgt := range targets {
				res, err := submitRun(cluster, app, spec, n, *gpusPerNode, *nx, *ny, *steps, plans[tgt.String()], *profile, reg)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("%-12s %-8s %5d %12.4f %14.1f %9.1f\n",
					app.Name, tgt, res.Ranks, res.TimeSec, res.EnergyJ,
					100*(1-res.EnergyJ/baseline.EnergyJ))
				if *profile {
					fmt.Print(core.RenderProfile(res.Kernels))
				}
			}
		}
	}
}

// submitRun submits one exclusive, GRES-tagged SLURM job running the
// application across the allocation's GPUs as a regular user.
func submitRun(cluster *slurm.Cluster, app *apps.App, spec *hw.Spec,
	nodes, gpusPerNode, nx, ny, steps int, plan apps.FreqPlan, profile bool,
	reg *telemetry.Registry) (*apps.RunResult, error) {
	var result *apps.RunResult
	jobRes, err := cluster.Submit(&slurm.Job{
		Name:      fmt.Sprintf("%s-%dn", app.Name, nodes),
		User:      "researcher",
		NumNodes:  nodes,
		Exclusive: true,
		Gres:      map[slurm.GRES]bool{slurm.GresNVGpuFreq: true},
		Run: func(alloc *slurm.Allocation) error {
			cfg := apps.RunConfig{
				Spec:          spec,
				Nodes:         nodes,
				GPUsPerNode:   gpusPerNode,
				LocalNx:       nx,
				LocalNy:       ny,
				Steps:         steps,
				StateRows:     8,
				FunctionalCap: 512,
				Plan:          plan,
				Net:           mpi.EDRFabric(),
				Devices:       alloc.GPUs(),
				User:          "researcher",
				Profile:       profile,
				Telemetry:     reg,
			}
			res, err := apps.Run(app, cfg)
			if err != nil {
				return err
			}
			result = res
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	if jobRes.Err != nil {
		return nil, jobRes.Err
	}
	return result, nil
}
