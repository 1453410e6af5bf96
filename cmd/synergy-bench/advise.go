package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/compile"
	"synergy/internal/kernelir/opt"
	"synergy/internal/metrics"
	"synergy/internal/microbench"
	"synergy/internal/model"
	"synergy/internal/serve"
	"synergy/internal/sweep"
	"synergy/internal/telemetry"
)

// trainBundle fits the Forest bundle for spec on the micro-benchmark
// suite. It clears the shared sweep memo first, so every repetition does
// the same work.
func trainBundle(tr *tracer, spec *hw.Spec, stride int) (*model.Models, error) {
	sweep.Shared().Invalidate()
	ks, err := microbench.Kernels(microbench.DefaultSet())
	if err != nil {
		return nil, err
	}
	s := tr.begin("model.collect")
	ts, err := model.CollectTraining(spec, ks, stride)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("model.train")
	m, err := model.Train(spec, ts, model.AlgoForest)
	tr.end(s)
	return m, err
}

// daemon is the system under test of the advise workloads: a bundle
// behind serve.Server on a loopback TCP listener, and a client of at most
// two connections.
type daemon struct {
	m      *model.Models
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
}

// startDaemon is the daemon's train-at-startup path: fit the V100 bundle,
// build the server and wait until its listener answers.
func startDaemon(tr *tracer, stride int) (*daemon, error) {
	root := tr.begin("setup")
	m, err := trainBundle(tr, hw.V100(), stride)
	if err != nil {
		return nil, err
	}
	d, err := serveBundle(tr, m)
	tr.end(root)
	return d, err
}

func serveBundle(tr *tracer, m *model.Models) (*daemon, error) {
	s := tr.begin("serve.new")
	srv, err := serve.New(m, telemetry.NewRegistry())
	if err != nil {
		return nil, err
	}
	d := &daemon{m: m, srv: srv, hs: httptest.NewServer(srv), client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
	}}
	resp, err := d.client.Get(d.hs.URL + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("daemon /healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	tr.end(s)
	return d, nil
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.hs.Close()
}

func (d *daemon) post(body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.hs.URL+"/v1/advise", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// encodeResponse encodes a response the way the daemon writes it.
func encodeResponse(r *serve.Response) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

// adviceResponse is the daemon's answer for v and t computed in process;
// actual is the ground-truth optimum, 0 when the request asks for none.
func adviceResponse(p *model.Predictor, fp string, v features.Vector, t metrics.Target, actual int) (*serve.Response, error) {
	a, err := p.Advise(v, t)
	if err != nil {
		return nil, err
	}
	m := p.Models()
	return &serve.Response{
		Device: m.Spec.Name, Algo: m.Algo, Target: t.String(),
		FreqMHz: a.FreqMHz, BaselineMHz: a.BaselineMHz,
		TimeNs: a.TimeNs, EnergyNanoJ: a.EnergyNanoJ, ESPct: a.ESPct, PLPct: a.PLPct,
		Bundle: fp, ActualFreqMHz: actual,
	}, nil
}

// oracle holds the answers the daemon must give. Hot pairs are answered
// in process before the window; one in ten cold requests is kept and
// re-derived once the run is over, sweeping on a serial engine.
type oracle struct {
	spec   *hw.Spec
	fp     string
	expect [][]byte

	mu     sync.Mutex
	sample map[int32][]byte
}

func newOracle(d *daemon, kir bool) (*oracle, error) {
	p, err := d.m.NewPredictor()
	if err != nil {
		return nil, err
	}
	serial := sweep.NewEngine(sweep.WithWorkers(1))
	o := &oracle{spec: d.m.Spec, fp: d.srv.BundleFingerprint(), sample: map[int32][]byte{}}
	for _, sk := range suite {
		v, err := features.Extract(sk.kernel)
		if err != nil {
			return nil, err
		}
		var gt *metrics.Sweep
		if kir {
			if gt, err = serial.GroundTruth(o.spec, sk.kernel, sk.items); err != nil {
				return nil, err
			}
		}
		for _, t := range targets {
			actual := 0
			if gt != nil {
				sel, err := gt.Select(t)
				if err != nil {
					return nil, err
				}
				actual = sel.FreqMHz
			}
			r, err := adviceResponse(p, o.fp, v, t, actual)
			if err != nil {
				return nil, err
			}
			exp, err := encodeResponse(r)
			if err != nil {
				return nil, err
			}
			o.expect = append(o.expect, exp)
		}
	}
	return o, nil
}

// verify checks the response to body i: a hot pair's must equal the
// in-process answer byte for byte; a cold one must be full service from
// this bundle at supported clocks.
func (o *oracle) verify(i int32, status int, resp []byte, err error) error {
	if err != nil {
		return fmt.Errorf("request %d: %w", i, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("request %d: status %d: %s", i, status, bytes.TrimSpace(resp))
	}
	if int(i) < len(o.expect) {
		if !bytes.Equal(resp, o.expect[i]) {
			return fmt.Errorf("request %d: got %s, want %s", i, bytes.TrimSpace(resp), bytes.TrimSpace(o.expect[i]))
		}
		return nil
	}
	var r serve.Response
	if err := json.Unmarshal(resp, &r); err != nil {
		return fmt.Errorf("request %d: %w", i, err)
	}
	switch {
	case r.Degraded != "":
		return fmt.Errorf("request %d: degraded: %s", i, r.Degraded)
	case r.Bundle != o.fp:
		return fmt.Errorf("request %d: bundle %s, want %s", i, r.Bundle, o.fp)
	case !o.spec.SupportsCoreFreq(r.FreqMHz) || !o.spec.SupportsCoreFreq(r.ActualFreqMHz):
		return fmt.Errorf("request %d: unsupported clocks %d/%d MHz", i, r.FreqMHz, r.ActualFreqMHz)
	}
	if i%10 == 0 {
		o.mu.Lock()
		o.sample[i] = resp
		o.mu.Unlock()
	}
	return nil
}

// rederive recomputes every kept cold response in process and compares.
func (o *oracle) rederive(b *bench, p *model.Predictor, bodies [][]byte) error {
	serial := sweep.NewEngine(sweep.WithWorkers(1))
	var keys []int32
	for i := range o.sample {
		keys = append(keys, i)
	}
	slices.Sort(keys)
	for _, i := range keys {
		var req serve.Request
		if err := json.Unmarshal(bodies[i], &req); err != nil {
			return err
		}
		k, err := kernelir.Assemble(req.KIR)
		if err != nil {
			return err
		}
		v, err := features.Extract(k)
		if err != nil {
			return err
		}
		t, err := metrics.ParseTarget(req.Target)
		if err != nil {
			return err
		}
		gt, err := serial.GroundTruth(o.spec, k, req.Items)
		if err != nil {
			return err
		}
		sel, err := gt.Select(t)
		if err != nil {
			return err
		}
		r, err := adviceResponse(p, o.fp, v, t, sel.FreqMHz)
		if err != nil {
			return err
		}
		exp, err := encodeResponse(r)
		if err != nil {
			return err
		}
		if !bytes.Equal(o.sample[i], exp) {
			err = fmt.Errorf("request %d: got %s, re-derived %s", i, bytes.TrimSpace(o.sample[i]), bytes.TrimSpace(exp))
		}
		b.check(err)
	}
	return nil
}

// warmUp pushes unique kernels through the public layer calls (assemble,
// extract, compile and sweep) so every bounded memo is full before the
// window, which then measures a long-running process.
func warmUp(eng *sweep.Engine, texts []string) error {
	for _, text := range texts {
		k, err := kernelir.Assemble(text)
		if err != nil {
			return err
		}
		if _, err := features.Extract(k); err != nil {
			return err
		}
		if _, err := eng.GroundTruth(hw.V100(), k, model.TrainingItems); err != nil {
			return err
		}
	}
	return nil
}

// closedLoop runs senders goroutines that each issue the next operation
// as soon as their previous one returns, until d has elapsed or the n
// operations are used up. It returns the operations done, how many
// succeeded and the time they took.
func closedLoop(d time.Duration, senders, n int, op func(i int) bool) (done, ok int, elapsed time.Duration) {
	var next, doneN, okN atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if op(i) {
					okN.Add(1)
				}
				doneN.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(doneN.Load()), int(okN.Load()), time.Since(start)
}

// openLoop issues operation i when due[i] has passed since the start, on
// whichever of the senders is free. Each operation's latency counts from
// its due time, so a stall delays every operation queued behind it; lag
// is how late each was sent.
func openLoop(due []time.Duration, senders int, op func(i int) bool) (lat, lag []time.Duration) {
	lat = make([]time.Duration, len(due))
	lag = make([]time.Duration, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				time.Sleep(time.Until(at))
				lag[i] = time.Since(at)
				op(i)
				lat[i] = time.Since(at)
			}
		}()
	}
	wg.Wait()
	return lat, lag
}

// pipeline replays /v1/advise requests in process against the daemon's
// bundle and sweep engine.
type pipeline struct {
	p   *model.Predictor
	eng *sweep.Engine
	fp  string
}

func newPipeline(d *daemon) (*pipeline, error) {
	p, err := d.m.NewPredictor()
	return &pipeline{p: p, eng: sweep.Shared(), fp: d.srv.BundleFingerprint()}, err
}

// advise replays one request, calling each layer's entry point in the
// daemon's order so that each first-touch cost lands in its own span:
// decode, assemble, fingerprint, optimize, compile, extract, advise,
// sweep, select, encode.
func (pl *pipeline) advise(tr *tracer, body []byte) ([]byte, error) {
	root := tr.begin("request")
	s := tr.begin("serve.decode")
	var req serve.Request
	err := json.Unmarshal(body, &req)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	t, err := metrics.ParseTarget(req.Target)
	if err != nil {
		return nil, err
	}
	var v features.Vector
	var k *kernelir.Kernel
	if req.KIR != "" {
		s = tr.begin("kernelir.assemble")
		k, err = kernelir.Assemble(req.KIR)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("kernelir.fingerprint")
		kernelir.Fingerprint(k)
		tr.end(s)
		s = tr.begin("opt.cached")
		opt.Cached(k)
		tr.end(s)
		s = tr.begin("compile.cached")
		_, err = compile.Cached(k)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("features.extract")
		v, err = features.Extract(k)
		tr.end(s)
	} else {
		v, err = features.FromMap(req.Features)
	}
	if err != nil {
		return nil, err
	}
	s = tr.begin("model.advise")
	r, err := adviceResponse(pl.p, pl.fp, v, t, 0)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if req.GroundTruth {
		gt, err := sweepSpans(tr, pl.eng, pl.p.Models().Spec, k, req.Items)
		if err != nil {
			return nil, err
		}
		s = tr.begin("metrics.select")
		sel, err := gt.Select(t)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		r.ActualFreqMHz = sel.FreqMHz
	}
	s = tr.begin("serve.encode")
	out, err := encodeResponse(r)
	tr.end(s)
	tr.end(root)
	return out, err
}

func runAdvise(b *bench, kir bool) error {
	in, err := genAdvise(b.cfg, kir)
	if err != nil {
		return err
	}
	b.markHeap()
	err = b.setup(func() error {
		if b.daemon != nil {
			b.daemon.close()
		}
		var err error
		b.daemon, err = startDaemon(b.tr, b.cfg.stride)
		return err
	})
	if err != nil {
		return err
	}
	d := b.daemon
	o, err := newOracle(d, kir)
	if err != nil {
		return err
	}
	if err := warmUp(sweep.Shared(), in.Warm); err != nil {
		return err
	}
	for p := range pairCount() {
		status, resp, err := d.post(in.Bodies[p])
		b.check(o.verify(int32(p), status, resp, err))
	}

	var failed atomic.Int64
	send := func(i int32) bool {
		status, resp, err := d.post(in.Bodies[i])
		if !b.check(o.verify(i, status, resp, err)) {
			failed.Add(1)
			return false
		}
		return true
	}
	b.startWindow()
	done, ok, elapsed := closedLoop(time.Duration(closedShare*float64(b.cfg.window)), 2, len(in.Closed),
		func(j int) bool { return send(in.Closed[j]) })
	due := make([]time.Duration, len(in.Open))
	for j, a := range in.Open {
		due[j] = a.Due
	}
	lat, lag := openLoop(due, 2, func(j int) bool { return send(in.Open[j].Body) })
	b.endWindow(done + len(in.Open))
	b.putLatency(float64(ok)/elapsed.Seconds(), lat)
	b.putLoad(done+len(in.Open), int(failed.Load()), lag)

	pl, err := newPipeline(d)
	if err != nil {
		return err
	}
	if b.tr != nil {
		b.replayAdvise(in, o, pl)
	}
	return o.rederive(b, pl.p, in.Bodies)
}

// replayAdvise replays fresh requests of the window's mix in process: the
// full pipeline untraced and traced, then the model pair, the in-process
// handler and the in-process/TCP pair, each on its own requests.
func (b *bench) replayAdvise(in *adviseInputs, o *oracle, pl *pipeline) {
	d, n := b.daemon, b.cfg.replay
	b.replayPair(n, func(tr *tracer, pass, j int) error {
		i := in.Replay[pass][j]
		out, err := pl.advise(tr, in.Bodies[i])
		return o.verify(i, http.StatusOK, out, err)
	})
	b.replayPass(b.tr, n, func(tr *tracer, j int) error {
		return modelRequest(tr, pl.p, in.Bodies[in.Replay[passModel][j]], j%2 == 0)
	})
	b.replayPass(b.tr, n, func(tr *tracer, j int) error {
		i := in.Replay[passHandler][j]
		status, resp := handlerRequest(tr, d, in.Bodies[i])
		return o.verify(i, status, resp, nil)
	})
	b.replayPass(b.tr, n, func(tr *tracer, j int) error {
		i := in.Replay[passHTTP][j]
		return httpRequest(tr, d, in.Bodies[i], j%2 == 0, func(status int, resp []byte, err error) error {
			return o.verify(i, status, resp, err)
		})
	})
}

// modelRequest evaluates the models' curve alone and the whole advice
// for one advise request, in the order curveFirst says, so that the
// trace can pair the two on the same input. The curve must cover the
// device's clock table.
func modelRequest(tr *tracer, p *model.Predictor, body []byte, curveFirst bool) error {
	var req serve.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	t, err := metrics.ParseTarget(req.Target)
	if err != nil {
		return err
	}
	var v features.Vector
	if req.KIR == "" {
		v, err = features.FromMap(req.Features)
	} else {
		var k *kernelir.Kernel
		if k, err = kernelir.Assemble(req.KIR); err == nil {
			v, err = features.Extract(k)
		}
	}
	if err != nil {
		return err
	}
	root := tr.begin("request")
	var c []model.PredictedPoint
	for _, curve := range []bool{curveFirst, !curveFirst} {
		if curve {
			s := tr.begin("model.curve")
			c = p.Curve(v)
			tr.end(s)
		} else {
			s := tr.begin("model.advise")
			_, err = p.Advise(v, t)
			tr.end(s)
		}
	}
	tr.end(root)
	if err != nil {
		return err
	}
	for f, pt := range c {
		if pt.FreqMHz != p.Models().Spec.CoreFreqsMHz[f] || !(pt.TimeNs > 0) {
			return fmt.Errorf("curve point %d is %+v", f, pt)
		}
	}
	return nil
}

// handlerRequest serves an advise request through the daemon's handler
// in process, without the network.
func handlerRequest(tr *tracer, d *daemon, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	root := tr.begin("request")
	s := tr.begin("serve.handler")
	d.srv.ServeHTTP(rec, req)
	tr.end(s)
	tr.end(root)
	return rec.Code, rec.Body.Bytes()
}

// httpRequest serves one hot advise request twice, through the
// daemon's handler in process and over loopback TCP, in the order
// localFirst says, so that the trace can pair the two and the difference
// is what the network stack costs. check verifies each response.
func httpRequest(tr *tracer, d *daemon, body []byte, localFirst bool, check func(int, []byte, error) error) error {
	root := tr.begin("request")
	var errs [2]error
	for _, local := range []bool{localFirst, !localFirst} {
		if local {
			req := httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			s := tr.begin("http.local")
			d.srv.ServeHTTP(rec, req)
			tr.end(s)
			errs[0] = check(rec.Code, rec.Body.Bytes(), nil)
		} else {
			s := tr.begin("http.roundtrip")
			status, resp, err := d.post(body)
			tr.end(s)
			errs[1] = check(status, resp, err)
		}
	}
	tr.end(root)
	return errors.Join(errs[:]...)
}
