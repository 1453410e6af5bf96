package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/compile"
	"synergy/internal/kernelir/opt"
	"synergy/internal/metrics"
	"synergy/internal/serve"
	"synergy/internal/sweep"
)

// layerTimes lists the per-layer time metrics: each is the median self
// time per call of the spans of one name, in the metric's unit.
var layerTimes = []struct {
	metric, span, unit string
	per                time.Duration
}{
	{"kernelir.assemble_us", "kernelir.assemble", "us", time.Microsecond},
	{"kernelir.fingerprint_us", "kernelir.fingerprint", "us", time.Microsecond},
	{"opt.cached_us", "opt.cached", "us", time.Microsecond},
	{"compile.cached_us", "compile.cached", "us", time.Microsecond},
	{"features.extract_us", "features.extract", "us", time.Microsecond},
	{"sweep.miss_us", "sweep.miss", "us", time.Microsecond},
	{"sweep.hit_us", "sweep.hit", "us", time.Microsecond},
	{"metrics.select_ns", "metrics.select", "ns", time.Nanosecond},
	{"hw.evaluate_ns", "hw.evaluate", "ns", time.Nanosecond},
	{"model.advise_us", "model.advise", "us", time.Microsecond},
	{"model.curve_us", "model.curve", "us", time.Microsecond},
	{"model.collect_s", "model.collect", "s", time.Second},
	{"model.train_s", "model.train", "s", time.Second},
	{"serve.decode_us", "serve.decode", "us", time.Microsecond},
	{"serve.encode_us", "serve.encode", "us", time.Microsecond},
	{"serve.handler_us", "serve.handler", "us", time.Microsecond},
	{"serve.new_ms", "serve.new", "ms", time.Millisecond},
	{"placement.build_gt_us", "placement.build_gt", "us", time.Microsecond},
	{"placement.build_pred_us", "placement.build_pred", "us", time.Microsecond},
	{"placement.select_us", "placement.select", "us", time.Microsecond},
}

// sweepSpans requests a ground-truth sweep inside a span named for
// whether the engine computed the sweep (sweep.miss) or served it from
// its memo (sweep.hit).
func sweepSpans(tr *tracer, eng *sweep.Engine, spec *hw.Spec, k *kernelir.Kernel, items int64) (*metrics.Sweep, error) {
	s := tr.begin("sweep")
	before := eng.Evaluations()
	gt, err := eng.GroundTruth(spec, k, items)
	name := "sweep.hit"
	if eng.Evaluations() != before {
		name = "sweep.miss"
	}
	tr.endAs(s, name, 1)
	return gt, err
}

// replayPair runs op over n operations untraced and then over n more
// traced, both drawn alike, and records the tracing overhead.
func (b *bench) replayPair(n int, op func(tr *tracer, pass, j int) error) {
	var walls [2]time.Duration
	for pass, tr := range []*tracer{nil, b.tr} {
		start := time.Now()
		for j := range n {
			if !b.check(op(tr, pass, j)) {
				tr.unwind()
			}
		}
		walls[pass] = time.Since(start)
	}
	b.putLayer("trace.overhead_pct", "%", 100*(walls[1].Seconds()/walls[0].Seconds()-1))
}

// replayPass runs op over n operations, recording into tr.
func (b *bench) replayPass(tr *tracer, n int, op func(tr *tracer, j int) error) {
	for j := range n {
		if !b.check(op(tr, j)) {
			tr.unwind()
		}
	}
}

// evaluatePass times the device model per frequency point: one span per
// kernel and device over the device's whole clock table.
func (b *bench) evaluatePass(tr *tracer, texts []string, items []int64, specs []*hw.Spec) {
	b.replayPass(tr, len(texts), func(tr *tracer, j int) error {
		k, err := kernelir.Assemble(texts[j])
		if err != nil {
			return err
		}
		prog, err := compile.Cached(k)
		if err != nil {
			return err
		}
		w := prog.Workload(items[j])
		root := tr.begin("request")
		for _, spec := range specs {
			s := tr.begin("hw.evaluate")
			for _, f := range spec.CoreFreqsMHz {
				if _, err := spec.Evaluate(w, f); err != nil {
					return err
				}
			}
			tr.endAs(s, "hw.evaluate", len(spec.CoreFreqsMHz))
		}
		tr.end(root)
		return nil
	})
}

// opCounts are the process-wide work counters of the cached layers.
type opCounts struct {
	evaluations, evictions int64 // of sweep.Shared()
	optHits, optRuns       int64
	featHits, featRuns     int64
	compileHits, compiles  int64
}

func readOpCounts() opCounts {
	_, optHits, optRuns := opt.CacheStats()
	c := compile.Default()
	return opCounts{
		evaluations: sweep.Shared().Evaluations(), evictions: sweep.Shared().Evictions(),
		optHits: int64(optHits), optRuns: int64(optRuns),
		featHits: features.CacheHits(), featRuns: features.Extractions(),
		compileHits: c.Hits(), compiles: c.Compiles(),
	}
}

// allocsPerCall is the heap allocations one call of fn makes.
func allocsPerCall(runs int, fn func() error) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := fn(); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs)), nil
}

// traceLayers turns the spans into the per-layer metrics and writes the
// trace. A layer the workload's own replay never called is timed on the
// probe instead.
func (b *bench) traceLayers() error {
	probe, err := b.probe()
	if err != nil {
		return err
	}
	own, fallback := b.tr.selfTimes(), probe.selfTimes()
	med := func(span string) (float64, error) {
		xs := own[span]
		if len(xs) == 0 {
			xs = fallback[span]
		}
		if len(xs) == 0 {
			return 0, fmt.Errorf("no %s span to time", span)
		}
		return median(durations(xs, time.Nanosecond)), nil
	}
	for _, l := range layerTimes {
		v, err := med(l.span)
		if err != nil {
			return err
		}
		b.putLayer(l.metric, l.unit, v/float64(l.per))
	}
	for _, d := range []struct{ metric, a, b string }{
		{"model.select_us", "model.advise", "model.curve"},
		{"serve.http_overhead_us", "http.roundtrip", "http.local"},
	} {
		diffs := b.tr.pairedDiffs(d.a, d.b)
		if len(diffs) == 0 {
			diffs = probe.pairedDiffs(d.a, d.b)
		}
		if len(diffs) == 0 {
			return fmt.Errorf("no request has both a %s and a %s span", d.a, d.b)
		}
		b.putLayer(d.metric, "us", median(durations(diffs, time.Microsecond)))
	}
	b.putLayer("trace.unattributed_pct", "%", b.tr.unattributedPct())
	return writeTrace(filepath.Join(b.cfg.out, "trace-"+b.cfg.workload+".json"), b.tr, probe)
}

// probe calls every layer's entry point on the 23 suite kernels, so that
// each per-layer metric has a value on every workload, and measures
// prediction quality on all 230 (kernel, target) pairs. It trains the
// V100 bundle and the fleet bundles if the workload did not.
func (b *bench) probe() (*tracer, error) {
	tr := newTracer()
	var err error
	if b.daemon == nil {
		if b.daemon, err = startDaemon(tr, b.cfg.stride); err != nil {
			return nil, err
		}
	}
	if b.fleet == nil {
		if b.fleet, err = trainFleet(tr, b.cfg.stride); err != nil {
			return nil, err
		}
	}
	d, fs := b.daemon, b.fleet
	spec := d.m.Spec
	pl, err := newPipeline(d)
	if err != nil {
		return nil, err
	}
	// A fresh engine makes each kernel's first request a sweep miss.
	pl.eng = sweep.NewEngine()
	bodies, err := hotBodies(true)
	if err != nil {
		return nil, err
	}

	outs := make([][]byte, len(bodies))
	var apeSum float64
	for i, body := range bodies {
		var ape float64
		outs[i], err = pl.advise(tr, body)
		if err == nil {
			ape, err = adviceError(pl.eng, suite[i/len(targets)], targets[i%len(targets)], outs[i])
		}
		if !b.check(err) {
			tr.unwind()
		}
		apeSum += ape
	}
	b.putLayer("model.advice_mape_pct", "%", 100*apeSum/float64(len(bodies)))

	// The daemon must answer each request as the in-process pipeline did.
	// The handler pass sends one request per suite kernel, cycling through
	// the targets; the paired passes, which time small differences, send
	// as many as a replay pass does, spread over all pairs.
	var one []int
	var texts []string
	var items []int64
	for i, sk := range suite {
		one = append(one, i*len(targets)+i%len(targets))
		texts = append(texts, sk.text)
		items = append(items, sk.items)
	}
	same := func(i, status int, resp []byte, err error) error {
		if err == nil && (status != http.StatusOK || !bytes.Equal(resp, outs[i])) {
			err = fmt.Errorf("probe request %d: status %d: %s, in process %s", i, status, resp, outs[i])
		}
		return err
	}
	n := min(b.cfg.replay, len(bodies))
	b.replayPass(tr, n, func(tr *tracer, j int) error {
		return modelRequest(tr, pl.p, bodies[j*len(bodies)/n], j%2 == 0)
	})
	b.replayPass(tr, len(one), func(tr *tracer, j int) error {
		status, resp := handlerRequest(tr, d, bodies[one[j]])
		return same(one[j], status, resp, nil)
	})
	b.replayPass(tr, n, func(tr *tracer, j int) error {
		i := j * len(bodies) / n
		return httpRequest(tr, d, bodies[i], j%2 == 0, func(status int, resp []byte, err error) error {
			return same(i, status, resp, err)
		})
	})
	b.evaluatePass(tr, texts, items, []*hw.Spec{spec})
	matches := 0
	eng := sweep.NewEngine()
	b.replayPass(tr, pairCount(), func(tr *tracer, j int) error {
		gt, pred, err := fs.place(tr, eng, int32(j))
		if err == nil && gt.Device == pred.Device && gt.FreqMHz == pred.FreqMHz {
			matches++
		}
		return err
	})
	b.putLayer("placement.match_frac", "ratio", float64(matches)/float64(pairCount()))

	v, err := features.Extract(suite[0].kernel)
	if err != nil {
		return nil, err
	}
	allocs, err := allocsPerCall(50, func() error {
		_, err := pl.p.Advise(v, metrics.ES(50))
		return err
	})
	if err != nil {
		return nil, err
	}
	b.putLayer("model.advise_allocs", "count", allocs)
	return tr, nil
}

// adviceError is the absolute percentage error (§8.3) of the objective
// at the advised clock against the ground-truth optimum, for a response
// to a hot .kir request for sk and t.
func adviceError(eng *sweep.Engine, sk suiteKernel, t metrics.Target, resp []byte) (float64, error) {
	var r serve.Response
	if err := json.Unmarshal(resp, &r); err != nil {
		return 0, err
	}
	gt, err := eng.GroundTruth(hw.V100(), sk.kernel, sk.items)
	if err != nil {
		return 0, err
	}
	pred, ok1 := gt.PointAt(r.FreqMHz)
	act, ok2 := gt.PointAt(r.ActualFreqMHz)
	if !ok1 || !ok2 {
		return 0, fmt.Errorf("%s %s: clocks %d/%d MHz are not in the sweep", sk.name, t, r.FreqMHz, r.ActualFreqMHz)
	}
	want := metrics.ObjectiveValue(t, act)
	return math.Abs(metrics.ObjectiveValue(t, pred)-want) / want, nil
}
