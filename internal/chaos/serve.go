package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"synergy/internal/benchsuite"
	"synergy/internal/fault"
	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/model"
	"synergy/internal/resilience"
	"synergy/internal/serve"
	"synergy/internal/sweep"
	"synergy/internal/telemetry"
)

// ServeConfig parameterises a serve-chaos soak: seeded overload and
// dependency-failure episodes thrown at the advice daemon.
type ServeConfig struct {
	// Seed derives every episode's scenario, injector seed and request
	// script.
	Seed int64
	// Episodes is the number of chaos episodes.
	Episodes int
	// Ops is the length of the scripted request sequence per attempt.
	Ops int
	// BurstClients and BurstPerClient size the concurrent overload
	// burst of each episode.
	BurstClients   int
	BurstPerClient int
	// MaxInFlight and MaxQueue bound the burst server's gate (the
	// scripted attempts use a fixed tiny gate of their own).
	MaxInFlight int
	MaxQueue    int
	// Logf receives per-episode progress lines (nil = silent).
	Logf func(format string, args ...any)
	// Telemetry optionally receives soak-level counters (the same
	// families the cluster soak emits).
	Telemetry *telemetry.Registry
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.Episodes <= 0 {
		c.Episodes = 10
	}
	if c.Ops <= 0 {
		c.Ops = 24
	}
	if c.BurstClients <= 0 {
		c.BurstClients = 12
	}
	if c.BurstPerClient <= 0 {
		c.BurstPerClient = 10
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// The serve-failure archetype menu, over the daemon's fault sites.
// Delays are real time: the sweep budget in the scripted attempts is
// 40ms, so a 150ms stall is a guaranteed, deterministic sweep timeout.
var serveArchetypes = []archetype{
	{"sweep-stall", func(rng *rand.Rand, _ Config) string {
		return "serve.sweep delay=150ms"
	}},
	{"sweep-flake", func(rng *rand.Rand, _ Config) string {
		return fmt.Sprintf("serve.sweep p=0.%d err=fault.injected", 4+rng.Intn(5))
	}},
	{"predict-blip", func(rng *rand.Rand, _ Config) string {
		return fmt.Sprintf("serve.predict p=0.3 count=%d err=fault.injected", 4+rng.Intn(6))
	}},
	{"extract-lag", func(rng *rand.Rand, _ Config) string {
		return fmt.Sprintf("serve.extract p=0.5 delay=%dms", 1+rng.Intn(3))
	}},
	{"reload-fault", func(rng *rand.Rand, _ Config) string {
		return "serve.reload count=1 err=fault.injected"
	}},
}

// serveFixture is the expensive, episode-invariant state of a soak:
// two distinct trained bundles for the same device (A/B reload
// targets, distinguishable by fingerprint) and the request corpus.
type serveFixture struct {
	bundleA, bundleB *model.Models
	jsonA, jsonB     []byte
	fpA, fpB         string
	featureReqs      []serve.Request // advise-by-features corpus
	gtReq            serve.Request   // advise-by-kir with ground truth
	gtKernel         *kernelir.Kernel
}

// newServeFixture trains the two bundles and prewarms the sweep
// memoizer for the ground-truth kernel, so a scripted attempt's sweep
// outcome depends only on injected faults, never on first-compute
// timing.
func newServeFixture() (*serveFixture, error) {
	spec := hw.V100()
	f := &serveFixture{}
	for _, p := range []struct {
		stride int
		m      **model.Models
		js     *[]byte
		fp     *string
	}{
		{16, &f.bundleA, &f.jsonA, &f.fpA},
		{24, &f.bundleB, &f.jsonB, &f.fpB},
	} {
		m, err := model.TrainDefault(spec, model.AlgoForest, p.stride)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := model.SaveModels(&buf, m); err != nil {
			return nil, err
		}
		fp, err := m.Fingerprint()
		if err != nil {
			return nil, err
		}
		*p.m, *p.js, *p.fp = m, buf.Bytes(), fp
	}
	if f.fpA == f.fpB {
		return nil, fmt.Errorf("chaos: reload bundles fingerprint equal; swaps would be unobservable")
	}

	targets := []string{"MIN_ENERGY", "MIN_EDP", "ES_25", "MAX_PERF"}
	for i, name := range []string{"black_scholes", "matmul", "vec_add", "median"} {
		b, err := benchsuite.ByName(name)
		if err != nil {
			return nil, err
		}
		v, err := kernelFeatures(b.Kernel)
		if err != nil {
			return nil, err
		}
		f.featureReqs = append(f.featureReqs, serve.Request{Target: targets[i%len(targets)], Features: v})
	}
	gtb, err := benchsuite.ByName("vec_add")
	if err != nil {
		return nil, err
	}
	f.gtKernel = gtb.Kernel
	f.gtReq = serve.Request{
		Target: "MIN_EDP", KIR: gtb.Kernel.Disassemble(), Items: 1 << 16, GroundTruth: true,
	}
	if _, err := sweep.GroundTruthContext(context.Background(), spec, f.gtKernel, 1<<16); err != nil {
		return nil, err
	}
	return f, nil
}

// scriptClock is the scripted breaker clock: strictly monotone, one
// fixed step per reading, so the breaker's transition timestamps are a
// pure function of the call sequence.
type scriptClock struct{ t float64 }

func (c *scriptClock) now() float64 { c.t += 0.05; return c.t }

// ServeSoak runs the serve-chaos soak. Each episode:
//
//  1. Determinism: a seed-derived request script (advise, ground-truth
//     advise, malformed input, pre-expired deadlines, A/B reloads) runs
//     twice against two identically configured fresh daemons with the
//     same fault scenario and a scripted breaker clock; the canonical
//     outcome trace — status, shed reason, degraded mode, bundle
//     fingerprint, advised frequency, fired faults, breaker transitions
//     — must be byte-identical.
//  2. Overload: a concurrent burst at ~2x the burst server's gate races
//     advise traffic against A/B reloads over real HTTP, asserting the
//     robustness invariants: every request reaches exactly one terminal
//     outcome and the daemon's accounting agrees, in-flight never
//     exceeds the gate, every answer is stamped by exactly one of the
//     two bundles, the post-drain daemon serves the final bundle, and
//     goroutines settle.
func ServeSoak(cfg ServeConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	fx, err := newServeFixture()
	if err != nil {
		return nil, err
	}
	soakCfg := Config{Seed: cfg.Seed, Episodes: cfg.Episodes}
	rep := &Report{Config: soakCfg}
	for ep := 0; ep < cfg.Episodes; ep++ {
		er, err := runServeEpisode(cfg, fx, ep)
		if err != nil {
			return nil, err
		}
		rep.Episodes = append(rep.Episodes, er)
		cfg.Telemetry.Counter("synergy_chaos_episodes_total").Inc()
		cfg.Telemetry.Counter("synergy_chaos_faults_total").Add(int64(er.Faults))
		for _, v := range er.Violations {
			cfg.Telemetry.Counter("synergy_chaos_violations_total", "invariant", v.Invariant).Inc()
		}
		status := "ok"
		if len(er.Violations) > 0 {
			status = fmt.Sprintf("%d VIOLATIONS", len(er.Violations))
		}
		cfg.Logf("episode %2d seed=%-12d %-28s faults=%-3d %s",
			ep, er.Seed, strings.Join(er.Archetypes, "+"), er.Faults, status)
	}
	return rep, nil
}

func runServeEpisode(cfg ServeConfig, fx *serveFixture, ep int) (EpisodeReport, error) {
	seed := episodeSeed(cfg.Seed, ep)
	rng := rand.New(rand.NewSource(seed))
	names, script := generateScenario(rng, serveArchetypes, 2, Config{})
	sc, err := fault.ParseScenario(fmt.Sprintf("serve-ep%d", ep), script)
	if err != nil {
		return EpisodeReport{}, fmt.Errorf("chaos: serve episode %d scenario: %w", ep, err)
	}
	r := EpisodeReport{Episode: ep, Seed: seed, Archetypes: names, Scenario: script}
	ops := generateServeOps(rng, cfg.Ops, fx)

	base := runtime.NumGoroutine()

	// Invariant: determinism. Same seed, same script, same scenario ->
	// byte-identical outcome traces.
	t1, f1, err := runServeScript(fx, seed, sc, ops)
	if err != nil {
		return EpisodeReport{}, err
	}
	t2, _, err := runServeScript(fx, seed, sc, ops)
	if err != nil {
		return EpisodeReport{}, err
	}
	if t1 != t2 {
		r.addViolation(ep, "determinism", fmt.Sprintf(
			"serve traces differ across identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", t1, t2))
	}
	r.Trace = t1
	r.Faults = f1

	// Invariant: overload behavior under a real concurrent burst.
	runServeBurst(cfg, fx, seed, sc, ep, &r)

	// Invariant: goroutine hygiene — both phases fully drained.
	if n, ok := settle(base, 5*time.Second); !ok {
		r.addViolation(ep, "goroutine-hygiene", fmt.Sprintf(
			"%d goroutines before the episode, %d still running after", base, n))
	}
	return r, nil
}

// serveOp is one scripted request.
type serveOp struct {
	kind string // "advise", "gt", "bad", "expired", "reload"
	req  serve.Request
	toB  bool // reload direction
}

// generateServeOps renders the episode's request script. All draws
// come from rng in a fixed order: the seed fully determines the script.
func generateServeOps(rng *rand.Rand, n int, fx *serveFixture) []serveOp {
	ops := make([]serveOp, 0, n)
	toB := true
	for i := 0; i < n; i++ {
		switch p := rng.Intn(100); {
		case p < 40:
			ops = append(ops, serveOp{kind: "advise", req: fx.featureReqs[rng.Intn(len(fx.featureReqs))]})
		case p < 65:
			ops = append(ops, serveOp{kind: "gt", req: fx.gtReq})
		case p < 75:
			ops = append(ops, serveOp{kind: "bad", req: serve.Request{Target: "BOGUS"}})
		case p < 85:
			ops = append(ops, serveOp{kind: "expired", req: fx.featureReqs[rng.Intn(len(fx.featureReqs))]})
		default:
			ops = append(ops, serveOp{kind: "reload", toB: toB})
			toB = !toB
		}
	}
	return ops
}

// runServeScript plays the request script sequentially against a fresh
// daemon and renders the canonical outcome trace.
func runServeScript(fx *serveFixture, seed int64, sc fault.Scenario, ops []serveOp) (trace string, faults int, err error) {
	inj := fault.NewFromScenario(seed, sc)
	clk := &scriptClock{}
	s, err := serve.NewWithConfig(fx.bundleA, telemetry.NewRegistry(), serve.Config{
		MaxInFlight:  2,
		MaxQueue:     2,
		SweepTimeout: 40 * time.Millisecond,
		Breaker:      resilience.Config{FailureThreshold: 2, CooldownSec: 1.0, HalfOpenSuccesses: 1},
		Clock:        clk.now,
		Fault:        inj,
	})
	if err != nil {
		return "", 0, fmt.Errorf("chaos: building scripted daemon: %w", err)
	}
	var b strings.Builder
	for i, op := range ops {
		var body []byte
		path := "/v1/advise"
		switch op.kind {
		case "reload":
			path = "/v1/reload"
			js := fx.jsonA
			if op.toB {
				js = fx.jsonB
			}
			body, err = json.Marshal(serve.ReloadRequest{Bundle: js})
		default:
			body, err = json.Marshal(op.req)
		}
		if err != nil {
			return "", 0, err
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if op.kind == "expired" {
			req.Header.Set(serve.DeadlineHeader, "1ns")
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		out, _ := io.ReadAll(w.Result().Body)

		line := fmt.Sprintf("op %02d %-7s -> %d", i, op.kind, w.Code)
		switch {
		case w.Code == http.StatusOK && path == "/v1/advise":
			var resp serve.Response
			if err := json.Unmarshal(out, &resp); err != nil {
				return "", 0, err
			}
			line += fmt.Sprintf(" bundle=%s freq=%d actual=%d degraded=%q",
				resp.Bundle, resp.FreqMHz, resp.ActualFreqMHz, resp.Degraded)
		case w.Code == http.StatusOK:
			var rr map[string]string
			if err := json.Unmarshal(out, &rr); err != nil {
				return "", 0, err
			}
			line += fmt.Sprintf(" bundle=%s", rr["bundle"])
		default:
			var e map[string]string
			_ = json.Unmarshal(out, &e)
			line += fmt.Sprintf(" reason=%q", e["reason"])
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	// Fold in the fired faults and the breaker's transition log: the
	// full failure history must replay bit-for-bit, not just the
	// responses.
	b.WriteString(canonicalTrace(inj.Trace(), s.SweepBreaker().Inner().Transitions()))
	return b.String(), len(inj.Trace()), nil
}

// runServeBurst saturates a fresh daemon at ~2x its gate with advise
// traffic racing A/B reloads, then checks the overload invariants.
func runServeBurst(cfg ServeConfig, fx *serveFixture, seed int64, sc fault.Scenario, ep int, r *EpisodeReport) {
	inj := fault.NewFromScenario(seed, sc)
	reg := telemetry.NewRegistry()
	s, err := serve.NewWithConfig(fx.bundleA, reg, serve.Config{
		MaxInFlight:  cfg.MaxInFlight,
		MaxQueue:     cfg.MaxQueue,
		SweepTimeout: 40 * time.Millisecond,
		Fault:        inj,
	})
	if err != nil {
		r.addViolation(ep, "terminates", fmt.Sprintf("burst: building daemon: %v", err))
		return
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	bodies := make([][]byte, len(fx.featureReqs))
	for i, req := range fx.featureReqs {
		bodies[i], err = json.Marshal(req)
		if err != nil {
			r.addViolation(ep, "terminates", fmt.Sprintf("burst: %v", err))
			return
		}
	}

	var terminal, badStamp atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// One reloader flips bundles for the whole burst.
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := true
		for {
			select {
			case <-stop:
				return
			default:
			}
			js := fx.jsonA
			if next {
				js = fx.jsonB
			}
			next = !next
			body, _ := json.Marshal(serve.ReloadRequest{Bundle: js})
			resp, err := http.Post(ts.URL+"/v1/reload", "application/json", bytes.NewReader(body))
			if err != nil {
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	clientDone := make(chan struct{})
	var clientWG sync.WaitGroup
	for c := 0; c < cfg.BurstClients; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			for i := 0; i < cfg.BurstPerClient; i++ {
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/advise",
					bytes.NewReader(bodies[(c+i)%len(bodies)]))
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set(serve.DeadlineHeader, "5s")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					continue // transport error: not a daemon outcome
				}
				out, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				terminal.Add(1)
				if resp.StatusCode == http.StatusOK {
					var rr serve.Response
					if json.Unmarshal(out, &rr) != nil || (rr.Bundle != fx.fpA && rr.Bundle != fx.fpB) {
						badStamp.Add(1)
					}
				}
			}
		}(c)
	}
	go func() { clientWG.Wait(); close(clientDone) }()
	<-clientDone
	close(stop)
	wg.Wait()

	// Invariant: exactly one terminal outcome per request — the daemon's
	// own accounting must cover every advise request the clients saw
	// answered, with no invented or lost outcomes.
	snap := reg.Snapshot()
	var acct int64
	for _, outcome := range []string{"ok", "shed", "deadline", "client-error", "error"} {
		acct += snap.CounterValue("serve_requests_total", "route", "advise", "outcome", outcome)
	}
	if acct != terminal.Load() {
		r.addViolation(ep, "exactly-one-outcome", fmt.Sprintf(
			"burst: clients saw %d terminal advise outcomes, daemon accounted %d", terminal.Load(), acct))
	}
	// Invariant: the admission gate held.
	if peak := s.InFlightPeak(); peak > cfg.MaxInFlight {
		r.addViolation(ep, "gate-bound", fmt.Sprintf(
			"burst: in-flight peak %d exceeded the gate of %d", peak, cfg.MaxInFlight))
	}
	// Invariant: reload atomicity — every answer carried exactly one of
	// the two bundle fingerprints.
	if n := badStamp.Load(); n > 0 {
		r.addViolation(ep, "reload-atomicity", fmt.Sprintf(
			"burst: %d responses stamped by neither bundle %s nor %s", n, fx.fpA, fx.fpB))
	}
	// Invariant: post-drain, a final reload wins and the daemon serves
	// it — no half-swapped state survives the churn.
	if err := s.Reload(fx.bundleB); err != nil {
		r.addViolation(ep, "reload-atomicity", fmt.Sprintf("burst: post-drain reload: %v", err))
		return
	}
	resp, err := http.Post(ts.URL+"/v1/advise", "application/json", bytes.NewReader(bodies[0]))
	if err != nil {
		r.addViolation(ep, "terminates", fmt.Sprintf("burst: post-drain advise: %v", err))
		return
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var rr serve.Response
	if resp.StatusCode != http.StatusOK || json.Unmarshal(out, &rr) != nil {
		r.addViolation(ep, "terminates", fmt.Sprintf("burst: post-drain advise: status %d (%s)", resp.StatusCode, out))
		return
	}
	if rr.Bundle != fx.fpB {
		r.addViolation(ep, "reload-atomicity", fmt.Sprintf(
			"burst: post-drain advise stamped %s, want final bundle %s", rr.Bundle, fx.fpB))
	}
}

// kernelFeatures extracts a kernel's features in wire-map form.
func kernelFeatures(k *kernelir.Kernel) (map[string]float64, error) {
	v, err := features.Extract(k)
	if err != nil {
		return nil, err
	}
	return v.ToMap(), nil
}
