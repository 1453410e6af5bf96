package main

import (
	"fmt"
	"slices"
	"time"

	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/compile"
	"synergy/internal/kernelir/opt"
	"synergy/internal/model"
	"synergy/internal/sweep"
)

// charDevices are the devices every kernel is characterised on.
var charDevices = []*hw.Spec{hw.V100(), hw.A100(), hw.MI100(), hw.Xeon8160()}

// characterizeKernel characterises one kernel given as .kir text: its
// features, then per device the ground-truth sweep, all ten target
// selections, and three re-requests of the sweep as the report pipeline
// makes them, each of which must select as the first request did. It
// returns the selections, device-major. With layered set it first calls
// each kernel layer's entry point in turn, so that the trace attributes
// first-touch costs to the right layer.
func characterizeKernel(tr *tracer, eng *sweep.Engine, text string, items int64, layered bool) ([]int, error) {
	root := tr.begin("kernel")
	s := tr.begin("kernelir.assemble")
	k, err := kernelir.Assemble(text)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if layered {
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
	}
	s = tr.begin("features.extract")
	_, err = features.Extract(k)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	sels := make([]int, 0, len(charDevices)*len(targets))
	for d, spec := range charDevices {
		gt, err := sweepSpans(tr, eng, spec, k, items)
		if err != nil {
			return nil, err
		}
		for _, t := range targets {
			s = tr.begin("metrics.select")
			p, err := gt.Select(t)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			sels = append(sels, p.FreqMHz)
		}
		for r := range 3 {
			again, err := sweepSpans(tr, eng, spec, k, items)
			if err != nil {
				return nil, err
			}
			j := (d*3 + r) % len(targets)
			s = tr.begin("metrics.select")
			p, err := again.Select(targets[j])
			tr.end(s)
			if err != nil {
				return nil, err
			}
			if want := sels[d*len(targets)+j]; p.FreqMHz != want {
				return nil, fmt.Errorf("%s on %s: re-requested sweep selects %d MHz for %s, first %d MHz",
					k.Name, spec.Name, p.FreqMHz, targets[j], want)
			}
		}
	}
	tr.end(root)
	return sels, nil
}

func runCharacterize(b *bench) error {
	var in *charInputs
	err := b.setup(func() error {
		var err error
		in, err = genCharacterize(b.cfg)
		return err
	})
	if err != nil {
		return err
	}
	b.markHeap()
	if err := warmUp(sweep.NewEngine(), in.Warm); err != nil {
		return err
	}

	// An operation characterises one suite kernel again and one new
	// kernel, so its latency mixes the hot and the cold path in a fixed
	// proportion.
	n := len(in.Suite)
	suiteSels := make([][]int, n)
	type sample struct {
		text string
		sels []int
	}
	var samples []sample
	var lat, gaps []time.Duration
	var passes []float64
	ops, failed := 0, 0
	b.startWindow()
	deadline := time.Now().Add(b.cfg.window)
	last := time.Now()
	for p := 0; p < len(in.Passes) && time.Now().Before(deadline); p++ {
		start := time.Now()
		eng := sweep.NewEngine()
		for i := range n {
			t0 := time.Now()
			gaps = append(gaps, t0.Sub(last))
			sels, err := characterizeKernel(nil, eng, in.Suite[i], in.Items[i], false)
			var cold []int
			if err == nil {
				cold, err = characterizeKernel(nil, eng, in.Passes[p][i], model.TrainingItems, false)
			}
			last = time.Now()
			lat = append(lat, last.Sub(t0))
			ops++
			switch {
			case err != nil:
			case suiteSels[i] == nil:
				suiteSels[i] = sels
			case !slices.Equal(sels, suiteSels[i]):
				err = fmt.Errorf("pass %d: suite kernel %d selects %v, first pass %v", p, i, sels, suiteSels[i])
			}
			if err == nil && (p*n+i)%10 == 0 {
				samples = append(samples, sample{in.Passes[p][i], cold})
			}
			if !b.check(err) {
				failed++
			}
		}
		b.passEvals += eng.Evaluations()
		passes = append(passes, time.Since(start).Seconds())
	}
	b.endWindow(ops)
	b.putLatency(float64(n)/median(passes), lat)
	b.putLoad(ops, failed, gaps)

	serial := sweep.NewEngine(sweep.WithWorkers(1))
	for _, s := range samples {
		sels, err := characterizeKernel(nil, serial, s.text, model.TrainingItems, false)
		if err == nil && !slices.Equal(sels, s.sels) {
			err = fmt.Errorf("serial engine selects %v, window %v", sels, s.sels)
		}
		b.check(err)
	}

	if b.tr == nil {
		return nil
	}
	// Each replay pass characterises its own suite-plus-unique passes on
	// fresh engines, as the window does.
	per := len(in.Replay) / 2
	var eng *sweep.Engine
	b.replayPair(per*2*n, func(tr *tracer, pass, j int) error {
		if j%(2*n) == 0 {
			eng = sweep.NewEngine()
		}
		i := j % (2 * n) / 2
		text, items := in.Suite[i], in.Items[i]
		if j%2 == 1 {
			text, items = in.Replay[pass*per+j/(2*n)][i], model.TrainingItems
		}
		_, err := characterizeKernel(tr, eng, text, items, true)
		return err
	})
	var texts []string
	var items []int64
	for _, pass := range in.Replay[per:] {
		texts = append(texts, pass...)
		for range pass {
			items = append(items, model.TrainingItems)
		}
	}
	b.evaluatePass(b.tr, texts, items, charDevices)
	return nil
}
