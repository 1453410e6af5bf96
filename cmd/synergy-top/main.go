// Command synergy-top runs one seeded cluster workload with the
// unified telemetry layer attached everywhere — scheduler, governor,
// MPI fabric, vendor shims and devices — and renders the resulting
// registry. The default output is a top-style per-device table derived
// entirely from the telemetry snapshot (the table is itself a consumer
// of the metrics, not a second accounting path); -metrics switches to
// the Prometheus-style text exposition, -json to the full canonical
// snapshot (metrics + spans), and -trace additionally writes a Chrome
// trace with the span hierarchy injected as its own process.
//
// Every run is deterministic: the stack advances device virtual time
// only, so repeated invocations with the same flags produce
// byte-identical -metrics and -json output.
//
// With -serve URL the command runs no workload at all: it scrapes a
// live synergy-serve daemon's /metrics.json endpoint and renders the
// serve-side table instead — requests by route and outcome, sheds and
// degraded responses by reason, reload results, admission-gate gauges
// and request-latency quantiles from the serve_request_seconds
// histogram. -metrics and -json re-render the scraped snapshot the
// same way they render a local run's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"synergy/internal/apps"
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
	log.SetPrefix("synergy-top: ")
	appArg := flag.String("app", "cloverleaf", "application: cloverleaf or miniweather")
	nodes := flag.Int("nodes", 2, "cluster node count")
	gpus := flag.Int("gpus", 2, "GPUs per node")
	steps := flag.Int("steps", 4, "application timesteps")
	nx := flag.Int("nx", 4096, "per-rank virtual grid width")
	ny := flag.Int("ny", 4096, "per-rank virtual grid height")
	targetArg := flag.String("target", "MIN_EDP",
		"energy target for per-kernel frequency scaling, or 'none' for default clocks")
	stride := flag.Int("stride", 8, "training-sweep frequency stride")
	showMetrics := flag.Bool("metrics", false, "print the Prometheus-style text exposition instead of the table")
	showJSON := flag.Bool("json", false, "print the canonical telemetry snapshot (metrics + spans) as JSON")
	traceOut := flag.String("trace", "", "write a span-augmented Chrome-trace JSON to this file")
	serveURL := flag.String("serve", "", "scrape a running synergy-serve daemon at this base URL and render its serve table instead of running a workload")
	flag.Parse()
	if *showMetrics && *showJSON {
		log.Fatal("-metrics and -json are mutually exclusive")
	}

	if *serveURL != "" {
		if *traceOut != "" {
			log.Fatal("-trace needs a local run; it cannot be combined with -serve")
		}
		snap, err := scrapeServe(*serveURL)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case *showMetrics:
			if err := snap.WriteText(os.Stdout); err != nil {
				log.Fatal(err)
			}
		case *showJSON:
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(snap); err != nil {
				log.Fatal(err)
			}
		default:
			printServeTable(snap, *serveURL)
		}
		return
	}

	var app *apps.App
	switch *appArg {
	case "cloverleaf":
		app = apps.NewCloverLeaf()
	case "miniweather":
		app = apps.NewMiniWeather()
	default:
		log.Fatalf("unknown app %q", *appArg)
	}

	spec := hw.V100()
	reg := telemetry.NewRegistry()
	sweep.Shared().SetTelemetry(reg)

	// Train the energy models and plan the run, unless scaling is off.
	var plan apps.FreqPlan
	if *targetArg != "none" {
		tgt, err := metrics.ParseTarget(*targetArg)
		if err != nil {
			log.Fatal(err)
		}
		adv, err := model.DefaultAdvisor(spec, *stride)
		if err != nil {
			log.Fatal(err)
		}
		plan, err = apps.PlanFromAdvisor(app, adv, *nx**ny, tgt)
		if err != nil {
			log.Fatal(err)
		}
	}

	// Build the cluster with the plugin installed and the registry
	// attached: the scheduler, every GPU, and (through RunConfig) the
	// governor, MPI fabric and span tree all record into it.
	var clusterNodes []*slurm.Node
	for i := 0; i < *nodes; i++ {
		clusterNodes = append(clusterNodes, slurm.NewNode(fmt.Sprintf("r%03d", i), spec, *gpus, slurm.GresNVGpuFreq))
	}
	cluster := slurm.NewCluster(clusterNodes...)
	cluster.RegisterPlugin(&slurm.NVGpuFreqPlugin{Controller: cluster})
	cluster.SetTelemetry(reg)

	var result *apps.RunResult
	var devices []*hw.Device
	jobRes, err := cluster.Submit(&slurm.Job{
		Name:      fmt.Sprintf("%s-top", app.Name),
		User:      "researcher",
		NumNodes:  *nodes,
		Exclusive: true,
		Gres:      map[slurm.GRES]bool{slurm.GresNVGpuFreq: true},
		Run: func(alloc *slurm.Allocation) error {
			devices = alloc.GPUs()
			res, err := apps.Run(app, apps.RunConfig{
				Spec:          spec,
				Nodes:         *nodes,
				GPUsPerNode:   *gpus,
				LocalNx:       *nx,
				LocalNy:       *ny,
				Steps:         *steps,
				StateRows:     8,
				FunctionalCap: 512,
				Plan:          plan,
				Net:           mpi.EDRFabric(),
				Devices:       devices,
				User:          "researcher",
				Telemetry:     reg,
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

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		var tds []trace.Device
		for _, d := range devices {
			tds = append(tds, trace.Device{Label: d.Label(), Dev: d})
		}
		if err := trace.ExportWith(f, tds, reg.Spans()); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	switch {
	case *showMetrics:
		if err := snap.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	case *showJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			log.Fatal(err)
		}
	default:
		printTable(snap, result, devices, app.Name, *targetArg)
	}
	if *traceOut != "" && !*showMetrics && !*showJSON {
		fmt.Printf("\nChrome trace written to %s\n", *traceOut)
	}
}

// printTable renders the top-style view. Every number comes out of the
// telemetry snapshot (counters, gauges, spans); the run result only
// supplies the headline job line.
func printTable(snap telemetry.Snapshot, res *apps.RunResult, devices []*hw.Device, appName, target string) {
	fmt.Printf("synergy-top: %s, %d ranks, target %s\n", appName, res.Ranks, target)
	fmt.Printf("job: time %.4f s  energy %.1f J  clock sets %d  degradations %d\n\n",
		res.TimeSec, res.EnergyJ, res.ClockSets,
		snap.CounterTotal("synergy_degradations_total"))

	fmt.Printf("%-12s %8s %8s %7s %10s %12s %8s\n",
		"DEVICE", "KERNELS", "CLKSETS", "RETRIES", "TIME(s)", "ENERGY(J)", "AVG(W)")
	for _, d := range devices {
		label := d.Label()
		kernels := snap.CounterValue("synergy_kernels_total", "device", label)
		clkSets := snap.CounterValue("synergy_clock_sets_applied_total", "device", label)
		retries := snap.CounterValue("synergy_clock_set_retries_total", "device", label)
		timeS := snap.GaugeValue("synergy_device_time_seconds", "device", label)
		energy := snap.GaugeValue("synergy_device_energy_joules", "device", label)
		avgW := 0.0
		if timeS > 0 {
			avgW = energy / timeS
		}
		fmt.Printf("%-12s %8d %8d %7d %10.4f %12.1f %8.1f\n",
			label, kernels, clkSets, retries, timeS, energy, avgW)
	}

	fmt.Printf("\nmpi: %d sends, %d retransmits, %d barriers, %d allreduces\n",
		snap.CounterTotal("synergy_mpi_sends_total"),
		snap.CounterTotal("synergy_mpi_send_retransmits_total"),
		snap.CounterTotal("synergy_mpi_barriers_total"),
		snap.CounterTotal("synergy_mpi_allreduces_total"))
	fmt.Printf("sweep: %d hits, %d misses, %d evictions\n",
		snap.CounterValue("synergy_sweep_requests_total", "result", "hit"),
		snap.CounterValue("synergy_sweep_requests_total", "result", "miss"),
		snap.CounterTotal("synergy_sweep_evictions_total"))
	kinds := map[string]int64{}
	for _, s := range snap.Spans {
		kinds[s.Kind]++
	}
	fmt.Printf("spans: %d job, %d rank, %d kernel, %d total\n",
		kinds["job"], kinds["rank"], kinds["kernel"], int64(len(snap.Spans)))
}

// scrapeServe fetches a live daemon's canonical telemetry snapshot
// from its /metrics.json endpoint.
func scrapeServe(base string) (telemetry.Snapshot, error) {
	url := strings.TrimSuffix(base, "/")
	if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
		url = "http://" + url
	}
	if !strings.HasSuffix(url, "/metrics.json") {
		url += "/metrics.json"
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return telemetry.Snapshot{}, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return telemetry.Snapshot{}, fmt.Errorf("scrape %s: %v", url, err)
	}
	return snap, nil
}

// printServeTable renders the daemon-side view of the snapshot:
// traffic by route and outcome, overload decisions, reloads, gate
// occupancy and latency quantiles.
func printServeTable(snap telemetry.Snapshot, url string) {
	fmt.Printf("synergy-top: serve daemon at %s\n", url)
	fmt.Printf("requests: %d total  advises %d  predictions %d  errors %d\n",
		snap.CounterTotal("serve_requests_total"),
		snap.CounterValue("serve_advises_total"),
		snap.CounterValue("serve_predictions_total"),
		snap.CounterValue("serve_errors_total"))
	fmt.Printf("gate: in-flight %.0f  queued %.0f\n\n",
		snap.GaugeValue("serve_inflight"),
		snap.GaugeValue("serve_queue_depth"))

	fmt.Printf("%-10s %-14s %8s\n", "ROUTE", "OUTCOME", "COUNT")
	for _, c := range counterFamily(snap, "serve_requests_total") {
		ls := parseLabelSet(c.Labels)
		fmt.Printf("%-10s %-14s %8d\n", ls["route"], ls["outcome"], c.Value)
	}

	fmt.Printf("\nshed: %s\n", labeledSummary(snap, "serve_shed_total", "reason"))
	fmt.Printf("degraded: %s\n", labeledSummary(snap, "serve_degraded_total", "reason"))
	fmt.Printf("reloads: %s\n", labeledSummary(snap, "serve_reloads_total", "result"))

	if h, err := snap.MergedHistogram("serve_request_seconds"); err == nil && h.Count > 0 {
		fmt.Printf("\nlatency: p50 %s  p90 %s  p99 %s  (%d samples)\n",
			fmtSeconds(bucketQuantile(h, 0.50)),
			fmtSeconds(bucketQuantile(h, 0.90)),
			fmtSeconds(bucketQuantile(h, 0.99)),
			h.Count)
	}
}

// counterFamily returns every series of one counter family, in the
// snapshot's canonical (label-sorted) order.
func counterFamily(snap telemetry.Snapshot, name string) []telemetry.CounterValue {
	var out []telemetry.CounterValue
	for _, c := range snap.Counters {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// labeledSummary renders a counter family keyed by one label as
// "val=count, val=count" ("none" when the family has no series).
func labeledSummary(snap telemetry.Snapshot, name, label string) string {
	var parts []string
	for _, c := range counterFamily(snap, name) {
		parts = append(parts, fmt.Sprintf("%s=%d", parseLabelSet(c.Labels)[label], c.Value))
	}
	if len(parts) == 0 {
		return "none"
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// parseLabelSet decodes a rendered label string like
// {outcome="ok",route="advise"} back into a map. Serve label values
// never contain quotes or commas, so a split-based parse suffices.
func parseLabelSet(s string) map[string]string {
	out := map[string]string{}
	s = strings.TrimSuffix(strings.TrimPrefix(s, "{"), "}")
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			continue
		}
		out[k] = strings.Trim(v, `"`)
	}
	return out
}

// bucketQuantile estimates a quantile from histogram buckets with
// linear interpolation inside the target bucket; samples in the
// overflow bucket report as the top finite bound.
func bucketQuantile(h telemetry.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	cum := uint64(0)
	for i, b := range h.Bounds {
		prev := cum
		cum += h.Counts[i]
		if float64(cum) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			if h.Counts[i] == 0 {
				return b
			}
			frac := (rank - float64(prev)) / float64(h.Counts[i])
			if frac < 0 {
				frac = 0
			}
			return lo + (b-lo)*frac
		}
	}
	if len(h.Bounds) > 0 {
		return h.Bounds[len(h.Bounds)-1]
	}
	return 0
}

// fmtSeconds renders a latency in the most readable unit.
func fmtSeconds(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.0fµs", s*1e6)
	}
}
