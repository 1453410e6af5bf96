package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"synergy/internal/benchsuite"
	"synergy/internal/features"
	"synergy/internal/kernelir"
	"synergy/internal/metrics"
	"synergy/internal/microbench"
	"synergy/internal/model"
	"synergy/internal/serve"
)

// Every input a run sends or processes is made here from the seed before
// the phase that uses it starts; the system under test sees only these
// inputs. Each purpose draws from its own stream, so the window's inputs
// do not depend on how many warm-up or replay inputs a run makes.
const (
	streamWindow uint64 = iota + 1
	streamOpen
	streamWarm
	streamReplay
)

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// targets are the paper's ten standard energy targets; a pair is one
// (suite kernel, target) combination, numbered kernel*len(targets)+target.
var targets = metrics.StandardTargets

func pairCount() int { return len(suite) * len(targets) }

// suiteKernel is a suite benchmark as a client sends it: its .kir text
// and the kernel assembled from that text, the only form the benchmark
// uses. The text rounds traffic factors (sobel5's 1/13 prints as 0.08),
// yet both forms share one fingerprint, so if both reached the
// kernel-keyed caches, whichever came first would decide later answers.
type suiteKernel struct {
	name   string
	text   string
	kernel *kernelir.Kernel
	items  int64
}

// suite is the 23-benchmark suite, assembled once per process.
var suite = func() []suiteKernel {
	var out []suiteKernel
	for _, bm := range benchsuite.All() {
		text := bm.Kernel.Disassemble()
		k, err := kernelir.Assemble(text)
		if err != nil {
			panic(err) // the suite is static data
		}
		out = append(out, suiteKernel{bm.Name, text, k, bm.CharItems})
	}
	return out
}()

// maxRate bounds how many operations per second a window's pre-generated
// inputs can feed. It is several times what the stack sustains on a
// 2-core host; a phase that exhausts its inputs ends early and its rates
// stay valid.
const maxRate = 2000

// Open-loop arrival rates of the advise workloads, in requests per
// second: about a third of what two connections sustain, so the latency
// percentiles measure service and not a saturated queue.
const (
	featuresRate = 150
	kirRate      = 120
)

// closedShare is the part of an advise window spent in the closed-loop
// phase; the open-loop phase takes the rest.
const closedShare = 0.4

// uniqueKernel builds a seeded micro-benchmark and returns its .kir
// text. The name makes its fingerprint unique, so every kernel-keyed
// cache misses on it; the operation counts keep it the size of a suite
// kernel (tens of instructions per work-item).
func uniqueKernel(r *rand.Rand, name string) (string, error) {
	k, err := microbench.Build(microbench.Config{
		Name:     name,
		IntAdd:   r.IntN(12),
		IntMul:   r.IntN(6),
		IntDiv:   r.IntN(3),
		IntBw:    r.IntN(6),
		FloatAdd: r.IntN(24),
		FloatMul: r.IntN(24),
		FloatDiv: r.IntN(4),
		SF:       r.IntN(4),
		Loads:    1 + r.IntN(8),
		Stores:   1 + r.IntN(2),
		Local:    2 * r.IntN(4),
		Traffic:  0.25 + 0.75*r.Float64(),
	})
	if err != nil {
		return "", err
	}
	return k.Disassemble(), nil
}

func uniqueKernels(r *rand.Rand, prefix string, seed uint64, n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		var err error
		if out[i], err = uniqueKernel(r, fmt.Sprintf("%s%d_%d", prefix, seed, i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// opsFor is the number of inputs a phase of length d needs at maxRate.
func opsFor(d time.Duration) int { return int(math.Ceil(d.Seconds() * maxRate)) }

// arrival is one open-loop request: when it is due, counted from the
// start of the phase, and which body it sends.
type arrival struct {
	Due  time.Duration
	Body int32
}

// adviseInputs are the request bodies of an advise run. Bodies[:pairCount()]
// are the hot (suite kernel, target) pairs; every later body is a cold
// request for a unique kernel and is sent once.
type adviseInputs struct {
	Bodies [][]byte
	Closed []int32
	Open   []arrival
	// Replay holds the bodies of each replay pass; see replayPasses.
	Replay [][]int32
	// Warm holds the unique kernels pushed through the layers before the
	// window (advise-kir only).
	Warm []string
}

// Replay passes of the advise workloads, in order.
const (
	passUntraced = iota
	passTraced
	passModel
	passHandler
	passHTTP // hot requests only, served both in process and over TCP
	replayPasses
)

// hotBodies returns the request bodies of the (suite kernel, target)
// pairs: feature maps, or .kir kernels with a ground-truth cross-check.
func hotBodies(kir bool) ([][]byte, error) {
	var out [][]byte
	for _, sk := range suite {
		for _, t := range targets {
			req := serve.Request{Target: t.String()}
			if kir {
				req.KIR, req.Items, req.GroundTruth = sk.text, sk.items, true
			} else {
				v, err := features.Extract(sk.kernel)
				if err != nil {
					return nil, err
				}
				req.Features = v.ToMap()
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			out = append(out, body)
		}
	}
	return out, nil
}

func genAdvise(cfg config, kir bool) (*adviseInputs, error) {
	hot, err := hotBodies(kir)
	if err != nil {
		return nil, err
	}
	in := &adviseInputs{Bodies: hot}
	pairs := int32(pairCount())
	unique := 0
	// draw returns the next request: a cold one when asked, else a
	// uniform pair. Every other advise-kir request is cold, so each phase
	// has the same mix whatever the seed.
	draw := func(r *rand.Rand, prefix string, cold bool) (int32, error) {
		if !cold {
			return r.Int32N(pairs), nil
		}
		text, err := uniqueKernel(r, fmt.Sprintf("%s%d_%d", prefix, cfg.seed, unique))
		if err != nil {
			return 0, err
		}
		unique++
		body, err := json.Marshal(serve.Request{
			Target: targets[r.IntN(len(targets))].String(), KIR: text,
			Items: model.TrainingItems, GroundTruth: true,
		})
		if err != nil {
			return 0, err
		}
		in.Bodies = append(in.Bodies, body)
		return int32(len(in.Bodies) - 1), nil
	}

	closed := time.Duration(closedShare * float64(cfg.window))
	r := newRand(cfg.seed, streamWindow)
	for j := range opsFor(closed) {
		i, err := draw(r, "c", kir && j%2 == 1)
		if err != nil {
			return nil, err
		}
		in.Closed = append(in.Closed, i)
	}
	rate := float64(featuresRate)
	if kir {
		rate = kirRate
	}
	r = newRand(cfg.seed, streamOpen)
	for due, j := 0.0, 0; ; j++ {
		due += r.ExpFloat64() / rate
		if due >= (cfg.window - closed).Seconds() {
			break
		}
		i, err := draw(r, "o", kir && j%2 == 1)
		if err != nil {
			return nil, err
		}
		in.Open = append(in.Open, arrival{Due: time.Duration(due * float64(time.Second)), Body: i})
	}
	r = newRand(cfg.seed, streamReplay)
	in.Replay = make([][]int32, replayPasses)
	for p := range in.Replay {
		for j := range cfg.replay {
			i, err := draw(r, "r", kir && j%2 == 1 && p != passHTTP)
			if err != nil {
				return nil, err
			}
			in.Replay[p] = append(in.Replay[p], i)
		}
	}
	if kir {
		var err error
		if in.Warm, err = uniqueKernels(newRand(cfg.seed, streamWarm), "w", cfg.seed, cfg.warmKernels); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// charInputs are the kernels of a characterize run as .kir text. Every
// pass characterises the suite plus its own unique kernels, one per
// suite kernel.
type charInputs struct {
	Suite  []string
	Items  []int64
	Passes [][]string
	Replay [][]string
	Warm   []string
}

// charPassRate bounds the passes per second a window's pre-generated
// kernels can feed, several times what a 2-core host sustains.
const charPassRate = 40

func genCharacterize(cfg config) (*charInputs, error) {
	in := &charInputs{}
	for _, sk := range suite {
		in.Suite = append(in.Suite, sk.text)
		in.Items = append(in.Items, sk.items)
	}
	n := len(in.Suite)
	gen := func(stream uint64, prefix string, passes int) ([][]string, error) {
		r := newRand(cfg.seed, stream)
		out := make([][]string, passes)
		for p := range out {
			var err error
			if out[p], err = uniqueKernels(r, fmt.Sprintf("%s%d_", prefix, p), cfg.seed, n); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	var err error
	if in.Passes, err = gen(streamWindow, "p", int(math.Ceil(cfg.window.Seconds()*charPassRate))); err != nil {
		return nil, err
	}
	// Each of the two replay passes (untraced, traced) covers cfg.replay
	// kernels, rounded up to whole characterisation passes.
	perReplay := (cfg.replay + 2*n - 1) / (2 * n)
	if in.Replay, err = gen(streamReplay, "r", 2*perReplay); err != nil {
		return nil, err
	}
	in.Warm, err = uniqueKernels(newRand(cfg.seed, streamWarm), "w", cfg.seed, cfg.warmKernels)
	return in, err
}

// placeInputs are the (suite kernel, target) pairs a train-place run
// places, in order.
type placeInputs struct {
	Window []int32
	Replay [][]int32 // untraced, traced
}

func genPlace(cfg config) *placeInputs {
	pairs := int32(pairCount())
	in := &placeInputs{Replay: make([][]int32, 2)}
	r := newRand(cfg.seed, streamWindow)
	for range opsFor(cfg.window) {
		in.Window = append(in.Window, r.Int32N(pairs))
	}
	r = newRand(cfg.seed, streamReplay)
	for p := range in.Replay {
		for range cfg.replay {
			in.Replay[p] = append(in.Replay[p], r.Int32N(pairs))
		}
	}
	return in
}
