// Cluster example: run mini-CloverLeaf as a SYCL+MPI job on a simulated
// 4-node × 4-GPU cluster through the SLURM layer, showing the nvgpufreq
// plugin's privilege window: the job runs as a regular user, scales each
// kernel's frequency for the ES_50 target, and the epilogue restores the
// nodes to a clean state.
//
// Run with: go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"synergy/internal/apps"
	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/model"
	"synergy/internal/mpi"
	"synergy/internal/slurm"
)

func main() {
	log.SetFlags(0)
	spec := hw.V100()

	// Four 4-GPU nodes, nvgpufreq GRES + plugin (the §7.2 deployment).
	var nodes []*slurm.Node
	for i := 0; i < 4; i++ {
		nodes = append(nodes, slurm.NewNode(fmt.Sprintf("node%02d", i), spec, 4, slurm.GresNVGpuFreq))
	}
	cluster := slurm.NewCluster(nodes...)
	cluster.RegisterPlugin(&slurm.NVGpuFreqPlugin{Controller: cluster})

	// Train the models and plan ES_50 per kernel.
	advisor, err := model.DefaultAdvisor(spec, 8)
	if err != nil {
		log.Fatal(err)
	}
	app := apps.NewCloverLeaf()
	const nx, ny = 16384, 16384
	plan, err := apps.PlanFromAdvisor(app, advisor, nx*ny, metrics.ES(50))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("per-kernel ES_50 frequency plan:")
	for _, k := range app.Kernels {
		fmt.Printf("  %-20s -> %d MHz\n", k.Name, plan[k.Name])
	}

	submit := func(label string, p apps.FreqPlan) *apps.RunResult {
		var result *apps.RunResult
		jobRes, err := cluster.Submit(&slurm.Job{
			Name: "cloverleaf-" + label, User: "alice",
			NumNodes: 4, Exclusive: true,
			Gres: map[slurm.GRES]bool{slurm.GresNVGpuFreq: true},
			Run: func(alloc *slurm.Allocation) error {
				res, err := apps.Run(app, apps.RunConfig{
					Spec: spec, Nodes: 4, GPUsPerNode: 4,
					LocalNx: nx, LocalNy: ny, Steps: 10,
					StateRows: 8, FunctionalCap: 512,
					Plan: p, Net: mpi.EDRFabric(),
					Devices: alloc.GPUs(), User: "alice",
				})
				if err != nil {
					return err
				}
				result = res
				return nil
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		if jobRes.Err != nil {
			log.Fatal(jobRes.Err)
		}
		fmt.Printf("%-8s: %2d GPUs, %.4f s, %.1f J (job accounting: %.1f J)\n",
			label, result.Ranks, result.TimeSec, result.EnergyJ, jobRes.EnergyJ)
		return result
	}

	fmt.Println("\nsubmitting jobs (16 GPUs each):")
	base := submit("default", nil)
	es50 := submit("ES_50", plan)
	fmt.Printf("\nES_50 saves %.1f%% energy at %.1f%% time cost\n",
		100*(1-es50.EnergyJ/base.EnergyJ), 100*(es50.TimeSec/base.TimeSec-1))

	// The epilogue restored every GPU: default clocks, privileges gone.
	for _, n := range cluster.Nodes() {
		for _, g := range n.GPUs {
			if g.AppClockMHz() != g.Spec().DefaultCoreMHz {
				log.Fatalf("node %s left a GPU at %d MHz", n.Name, g.AppClockMHz())
			}
		}
	}
	fmt.Println("epilogue verified: all GPUs back at default clocks, privileges restored")
}
