// Command synergy-bench is the repository's benchmark. It runs one of
// four seeded workloads against the SYnergy stack, checks every output,
// and prints one JSON result line as the last line of standard output:
// the end-to-end metrics, or with -trace 1 the per-layer metrics of a
// traced replay that follows the timed window.
//
// From the root of the repository (run.sh builds the binary first):
//
//	bash cmd/synergy-bench/run.sh --workload advise-kir --seed 1 --seconds 10 --trace 0
//	bash cmd/synergy-bench/run.sh -seed 1 -runs 5 -out .bench_build/a  # every workload, a child process per run
//	bash cmd/synergy-bench/run.sh -compare .bench_build/a .bench_build/b  # verdicts under BENCHMARK.json's bounds
//
// README.md describes the workloads, the metrics and which layer moves
// which end-to-end metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"advise-features", func(b *bench) error { return runAdvise(b, false) }},
	{"advise-kir", func(b *bench) error { return runAdvise(b, true) }},
	{"characterize", runCharacterize},
	{"train-place", runTrainPlace},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// config is one run's parameters. The command line sets the first five;
// the rest are fixed by defaultConfig and reduced only by the smoke test.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	out      string

	stride      int // frequency stride of every trained bundle
	setups      int // set-up repetitions; setup_s is their median
	warmKernels int // unique kernels pushed through the layers before the window
	replay      int // operations per replay pass
}

func defaultConfig() config {
	return config{seed: 1, window: 10 * time.Second, out: ".bench_build",
		stride: 8, setups: 3, warmKernels: 5000, replay: 200}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("synergy-bench: ")
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("synergy-bench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run in this process ("+strings.Join(workloadNames(), ", ")+"); without it every workload runs in child processes")
	fs.Uint64Var(&cfg.seed, "seed", cfg.seed, "seed of every generated input")
	seconds := fs.Float64("seconds", cfg.window.Seconds(), "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics from a traced replay")
	fs.StringVar(&cfg.out, "out", cfg.out, "directory for traces and, without -workload, result files")
	runs := fs.Int("runs", 1, "without -workload: seeds per workload, counting up from -seed")
	compare := fs.Bool("compare", false, "compare the result files of the two -out directories given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			log.Print("-compare needs two result directories")
			return 2
		}
		if err := compareDirs(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			log.Print(err)
			return 1
		}
		return 0
	}
	if !(*seconds > 0) || (*trace != 0 && *trace != 1) || *runs < 1 || fs.NArg() != 0 {
		log.Print("want -seconds > 0, -trace 0 or 1, -runs >= 1 and no arguments")
		return 2
	}
	cfg.window = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		log.Print(err)
		return 1
	}
	if cfg.workload == "" {
		return runAll(cfg, *runs, stdout)
	}
	if cfg.trace {
		cfg.setups = 1
	}
	out, err := runWorkload(cfg)
	if err != nil {
		log.Printf("%s: %v", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(out.result(cfg.trace))
	if err != nil {
		log.Printf("%s: %v", cfg.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if out.failed > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is everything one run measured.
type outcome struct {
	attempted, failed int64
	e2e, layers       map[string]metric
}

func (o *outcome) result(trace bool) result {
	m := o.e2e
	if trace {
		m = o.layers
	}
	return result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}
}

// bench is the state of one workload run.
type bench struct {
	cfg    config
	e2e    map[string]metric
	layers map[string]metric
	err    error // the first non-finite metric

	attempted, failed atomic.Int64

	// tr records the replay when tracing; nil otherwise.
	tr *tracer
	// heap0 is the live heap once the inputs exist, before the system
	// under test is built.
	heap0   uint64
	window0 time.Time
	gc0     float64
	ops0    opCounts
	// passEvals counts the sweeps computed by engines other than
	// sweep.Shared() during the window.
	passEvals int64

	// What the workload built; the probe builds what is missing.
	daemon *daemon
	fleet  *fleetSys
}

func runWorkload(cfg config) (*outcome, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	b := &bench{cfg: cfg, e2e: map[string]metric{}, layers: map[string]metric{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	defer func() {
		if b.daemon != nil {
			b.daemon.close()
		}
	}()
	if err := w.run(b); err != nil {
		return nil, err
	}
	b.liveHeap()
	if cfg.trace {
		if err := b.traceLayers(); err != nil {
			return nil, err
		}
	}
	if b.err != nil {
		return nil, b.err
	}
	return &outcome{attempted: b.attempted.Load(), failed: b.failed.Load(), e2e: b.e2e, layers: b.layers}, nil
}

// check counts one checked operation and reports whether it passed; the
// first few failures are logged.
func (b *bench) check(err error) bool {
	b.attempted.Add(1)
	if err == nil {
		return true
	}
	if b.failed.Add(1) <= 5 {
		log.Printf("%s: check failed: %v", b.cfg.workload, err)
	}
	return false
}

func put(dst map[string]metric, err *error, name, unit string, v float64) {
	if (math.IsNaN(v) || math.IsInf(v, 0)) && *err == nil {
		*err = fmt.Errorf("metric %s is %v", name, v)
	}
	dst[name] = metric{Value: v, Unit: unit}
}

func (b *bench) putE2E(name, unit string, v float64)   { put(b.e2e, &b.err, name, unit, v) }
func (b *bench) putLayer(name, unit string, v float64) { put(b.layers, &b.err, name, unit, v) }

// setup builds the system under test cfg.setups times and reports the
// median as setup_s. Each repetition replaces the previous one's system.
func (b *bench) setup(build func() error) error {
	var ts []float64
	for range b.cfg.setups {
		start := time.Now()
		if err := build(); err != nil {
			return err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	b.putE2E("setup_s", "s", median(ts))
	return nil
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// markHeap records the live heap once the run's inputs exist; live_heap_mb
// is what the system under test keeps on top of it.
func (b *bench) markHeap() { b.heap0 = heapInUse() }

func (b *bench) liveHeap() {
	b.putE2E("live_heap_mb", "MB", (float64(heapInUse())-float64(b.heap0))/1e6)
}

// gcSeconds is the CPU time the garbage collector has used.
func gcSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return s[0].Value.Float64()
}

// startWindow and endWindow bracket the timed window: they measure the
// share of the available CPU time the garbage collector took and read
// the cache counters. The window starts with a collection, so that the
// set-up's and warm-up's garbage is not collected on its time.
func (b *bench) startWindow() {
	runtime.GC()
	b.window0 = time.Now()
	b.gc0 = gcSeconds()
	b.ops0 = readOpCounts()
}

func (b *bench) endWindow(ops int) {
	avail := time.Since(b.window0).Seconds() * float64(runtime.GOMAXPROCS(0))
	b.putLayer("go.gc_cpu_frac", "ratio", (gcSeconds()-b.gc0)/avail)
	c := readOpCounts()
	b.putLayer("sweep.evaluations_per_op", "1/op", float64(c.evaluations-b.ops0.evaluations+b.passEvals)/float64(ops))
	b.putLayer("sweep.evictions_per_op", "1/op", float64(c.evictions-b.ops0.evictions)/float64(ops))
	b.putLayer("opt.hit_ratio", "ratio", ratio(c.optHits, c.optRuns))
	b.putLayer("features.hit_ratio", "ratio", ratio(c.featHits, c.featRuns))
	b.putLayer("compile.hit_ratio", "ratio", ratio(c.compileHits, c.compiles))
}

// ratio is the share of lookups that hit, 0 when there were none.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// putLoad records the window's operation counts and how late the
// generator issued operations.
func (b *bench) putLoad(sent, failed int, lag []time.Duration) {
	b.putLayer("loadgen.sent", "count", float64(sent))
	b.putLayer("loadgen.failed", "count", float64(failed))
	b.putLayer("loadgen.lag_p99_ms", "ms", percentile(durations(lag, time.Millisecond), 99))
}

// putLatency records the throughput and the latency percentiles. The
// 99th percentile is a per-layer metric: on a shared 2-core host it
// varies too much from run to run to gate on.
func (b *bench) putLatency(opsPerSec float64, lat []time.Duration) {
	ms := durations(lat, time.Millisecond)
	b.putE2E("ops_per_s", "1/s", opsPerSec)
	b.putE2E("p50_ms", "ms", percentile(ms, 50))
	b.putLayer("loadgen.p99_ms", "ms", percentile(ms, 99))
}

// runAll runs every workload at each seed in a child process of this
// binary, once per trace mode. Each child's result line goes to
// out/<workload>.t<trace>.s<seed>.json; the traced children write their
// traces to out/ too.
func runAll(cfg config, runs int, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		log.Print(err)
		return 1
	}
	status := 0
	for seed := cfg.seed; seed < cfg.seed+uint64(runs); seed++ {
		for _, w := range workloads {
			for _, trace := range []string{"0", "1"} {
				cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
					"--seconds", strconv.FormatFloat(cfg.window.Seconds(), 'g', -1, 64),
					"--trace", trace, "--out", cfg.out)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					log.Printf("%s seed %d trace %s: %v", w.name, seed, trace, err)
					status = 1
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				line := lines[len(lines)-1]
				if len(line) == 0 {
					continue
				}
				name := fmt.Sprintf("%s.t%s.s%d.json", w.name, trace, seed)
				if err := os.WriteFile(filepath.Join(cfg.out, name), append(line, '\n'), 0o644); err != nil {
					log.Print(err)
					return 1
				}
				fmt.Fprintf(stdout, "%s %s\n", name, line)
			}
		}
	}
	return status
}
