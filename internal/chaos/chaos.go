// Package chaos is the seeded chaos-soak harness: it generates
// randomized-but-reproducible fault scenarios (node death, clock-set
// denial storms, link jitter, straggler and dying ranks, epilogue
// crashes) and throws them at full multi-node SLURM+MPI+SYnergy runs,
// asserting the cluster resilience invariants after every episode.
//
// Every episode is derived from a single seed: the scenario script, the
// fault injector and the run itself are all deterministic, so a failing
// episode can be replayed bit-for-bit from its seed alone (the harness
// itself checks this by running every episode twice and comparing the
// canonical fault/breaker trace, the result key and the full telemetry
// snapshot — metrics exposition plus span log — byte for byte).
package chaos

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"synergy/internal/apps"
	"synergy/internal/fault"
	"synergy/internal/governor"
	"synergy/internal/hw"
	"synergy/internal/mpi"
	"synergy/internal/nvml"
	"synergy/internal/resilience"
	"synergy/internal/slurm"
	"synergy/internal/telemetry"
)

// Config parameterises a soak run.
type Config struct {
	// Seed derives every episode's scenario and injector seed.
	Seed int64
	// Episodes is the number of chaos episodes to run.
	Episodes int
	// Nodes is the cluster size; JobNodes of them are requested per job,
	// leaving headroom for requeues around dead nodes.
	Nodes    int
	JobNodes int
	// GPUsPerNode is the per-node GPU count (one MPI rank per GPU).
	GPUsPerNode int
	// Steps is the timestep count of the application run.
	Steps int
	// MaxRequeues bounds scheduler requeues after node failures.
	MaxRequeues int
	// Deadline is the real wall-clock budget per attempt: the no-hang
	// invariant. Virtual time is unrelated — a healthy episode finishes
	// in milliseconds of real time.
	Deadline time.Duration
	// Logf receives per-episode progress lines (nil = silent).
	Logf func(format string, args ...any)
	// Telemetry optionally receives soak-level counters
	// (synergy_chaos_episodes_total, synergy_chaos_faults_total,
	// synergy_chaos_violations_total{invariant}). Per-attempt registries
	// are always private to the attempt — that is what the telemetry
	// determinism invariant compares.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Episodes <= 0 {
		c.Episodes = 25
	}
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.JobNodes <= 0 {
		c.JobNodes = 2
	}
	if c.GPUsPerNode <= 0 {
		c.GPUsPerNode = 2
	}
	if c.Steps <= 0 {
		c.Steps = 3
	}
	if c.MaxRequeues <= 0 {
		c.MaxRequeues = 2
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Violation is one failed invariant in one episode.
type Violation struct {
	Episode   int
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("episode %d: %s: %s", v.Episode, v.Invariant, v.Detail)
}

// EpisodeReport is the outcome of one episode (two identical attempts).
type EpisodeReport struct {
	Episode    int
	Seed       int64
	Archetypes []string
	Scenario   string
	// Faults is the number of injected faults that actually fired.
	Faults   int
	Requeues int
	// JobErr is the job's final error text ("" when it succeeded —
	// chaos jobs are allowed to fail, they are not allowed to hang,
	// leak, lie about energy or leave privileges raised).
	JobErr string
	// Trace is the canonical fault + breaker-transition trace.
	Trace string
	// ResultKey fingerprints the run outcome (energy bits, wall time
	// bits, degradation and requeue counts).
	ResultKey  string
	Violations []Violation
}

// Report aggregates a whole soak.
type Report struct {
	Config   Config
	Episodes []EpisodeReport
}

// Violations returns every invariant violation across all episodes.
func (r *Report) Violations() []Violation {
	var out []Violation
	for _, ep := range r.Episodes {
		out = append(out, ep.Violations...)
	}
	return out
}

// Archetypes returns the distinct fault archetypes exercised.
func (r *Report) Archetypes() []string {
	seen := map[string]bool{}
	var out []string
	for _, ep := range r.Episodes {
		for _, a := range ep.Archetypes {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// Faults returns the total number of injected faults that fired.
func (r *Report) Faults() int {
	n := 0
	for _, ep := range r.Episodes {
		n += ep.Faults
	}
	return n
}

// archetype is one named failure pattern the generator can pick.
type archetype struct {
	name string
	gen  func(rng *rand.Rand, cfg Config) string
}

// The archetype menu. Generators draw from rng in a fixed order, so a
// seed fully determines the scenario script.
var archetypes = []archetype{
	{"link-jitter", func(rng *rand.Rand, cfg Config) string {
		return fmt.Sprintf("mpi.send p=0.25 delay=%dus", 20+rng.Intn(60))
	}},
	{"straggler", func(rng *rand.Rand, cfg Config) string {
		ranks := cfg.JobNodes * cfg.GPUsPerNode
		return fmt.Sprintf("mpi.send:r%d delay=%dus", rng.Intn(ranks), 100+rng.Intn(300))
	}},
	{"rank-loss", func(rng *rand.Rand, cfg Config) string {
		// A sticky message-lost rule exhausts the sender's retransmit
		// budget: the rank dies mid-run, peers must deadline out.
		ranks := cfg.JobNodes * cfg.GPUsPerNode
		return fmt.Sprintf("mpi.send:r%d after=%d err=mpi.message_lost", rng.Intn(ranks), 2+rng.Intn(5))
	}},
	{"node-death", func(rng *rand.Rand, cfg Config) string {
		// One-shot node failure at job launch: the scheduler must
		// requeue around the dead node.
		return fmt.Sprintf("slurm.node_fail:node%d count=1", rng.Intn(cfg.JobNodes))
	}},
	{"denial-storm", func(rng *rand.Rand, cfg Config) string {
		return fmt.Sprintf("nvml.set_app_clocks count=%d err=nvml.not_permitted", 8+rng.Intn(12))
	}},
	{"flaky-driver", func(rng *rand.Rand, cfg Config) string {
		return fmt.Sprintf("nvml.set_app_clocks p=0.4 count=%d err=nvml.timeout", 5+rng.Intn(10))
	}},
	{"epilogue-crash", func(rng *rand.Rand, cfg Config) string {
		// Two failures fit inside the epilogue's per-step retry budget:
		// cleanup must still complete and close the privilege window.
		return "slurm.epilogue p=0.5 count=2"
	}},
	{"submit-jitter", func(rng *rand.Rand, cfg Config) string {
		// Latency on the device thread just before each kernel starts.
		return fmt.Sprintf("sycl.submit p=0.2 count=10 delay=%dus", 2+rng.Intn(8))
	}},
}

// generateScenario picks 1 to most archetypes from menu and renders the
// scenario script.
func generateScenario(rng *rand.Rand, menu []archetype, most int, cfg Config) ([]string, string) {
	n := 1 + rng.Intn(most)
	picked := make([]bool, len(menu))
	for _, i := range rng.Perm(len(menu))[:n] {
		picked[i] = true
	}
	// Render in menu order for readable scripts; the choice of rules,
	// not their line order, is what the permutation randomises.
	var names, lines []string
	for i, a := range menu {
		if picked[i] {
			names = append(names, a.name)
			lines = append(lines, a.gen(rng, cfg))
		}
	}
	return names, strings.Join(lines, "\n") + "\n"
}

// Soak runs the configured number of chaos episodes and reports every
// invariant violation. The error return covers harness failures only
// (a violation is data, not an error).
func Soak(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.JobNodes > cfg.Nodes {
		return nil, fmt.Errorf("chaos: job wants %d of %d nodes", cfg.JobNodes, cfg.Nodes)
	}
	rep := &Report{Config: cfg}
	for ep := 0; ep < cfg.Episodes; ep++ {
		er, err := runEpisode(cfg, ep)
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
		} else if er.JobErr != "" {
			status = "ok (job failed cleanly)"
		}
		cfg.Logf("episode %2d seed=%-12d %-40s faults=%-3d requeues=%d %s",
			ep, er.Seed, strings.Join(er.Archetypes, "+"), er.Faults, er.Requeues, status)
	}
	return rep, nil
}

// episodeSeed spreads the soak seed across episodes.
func episodeSeed(seed int64, ep int) int64 { return seed + int64(ep)*7919 }

func runEpisode(cfg Config, ep int) (EpisodeReport, error) {
	seed := episodeSeed(cfg.Seed, ep)
	rng := rand.New(rand.NewSource(seed))
	names, script := generateScenario(rng, archetypes, 3, cfg)
	sc, err := fault.ParseScenario(fmt.Sprintf("ep%d", ep), script)
	if err != nil {
		return EpisodeReport{}, fmt.Errorf("chaos: episode %d scenario: %w", ep, err)
	}
	r := EpisodeReport{Episode: ep, Seed: seed, Archetypes: names, Scenario: script}

	base := runtime.NumGoroutine()
	// Invariant 2 (determinism): the same seed and scenario must yield a
	// byte-identical trace and result, so run every episode twice.
	a1 := runAttempt(cfg, seed, sc, &r, "run 1")
	a2 := runAttempt(cfg, seed, sc, &r, "run 2")
	if a1.ok && a2.ok {
		if a1.trace != a2.trace {
			r.addViolation(ep, "determinism", fmt.Sprintf(
				"fault/breaker traces differ across identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a1.trace, a2.trace))
		}
		if a1.resultKey != a2.resultKey {
			r.addViolation(ep, "determinism", fmt.Sprintf(
				"result keys differ: %s vs %s", a1.resultKey, a2.resultKey))
		}
		// Invariant 7 (telemetry determinism): each attempt carries its own
		// telemetry registry; the full snapshot — exposition text and span
		// log — must be byte-identical across the two runs.
		if a1.telemetry != a2.telemetry {
			r.addViolation(ep, "telemetry-determinism", fmt.Sprintf(
				"telemetry snapshots differ across identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a1.telemetry, a2.telemetry))
		}
	}
	r.Trace = a1.trace
	r.ResultKey = a1.resultKey
	r.Faults = a1.faults
	r.Requeues = a1.requeues
	r.JobErr = a1.jobErr

	// Invariant 5 (goroutine hygiene): both attempts fully drained.
	if n, ok := settle(base, 5*time.Second); !ok {
		r.addViolation(ep, "goroutine-hygiene", fmt.Sprintf(
			"%d goroutines before the episode, %d still running after", base, n))
	}
	return r, nil
}

func (r *EpisodeReport) addViolation(ep int, invariant, detail string) {
	r.Violations = append(r.Violations, Violation{Episode: ep, Invariant: invariant, Detail: detail})
}

type attemptResult struct {
	ok        bool
	trace     string
	resultKey string
	telemetry string
	faults    int
	requeues  int
	jobErr    string
}

// runAttempt builds a fresh cluster, runs the episode's job under the
// scenario and checks the per-attempt invariants (termination, energy
// conservation, retry bounds, privilege windows).
func runAttempt(cfg Config, seed int64, sc fault.Scenario, r *EpisodeReport, tag string) attemptResult {
	inj := fault.NewFromScenario(seed, sc)
	reg := resilience.NewRegistry(resilience.DefaultConfig())
	tel := telemetry.NewRegistry()
	reg.SetTelemetry(tel)
	spec := hw.V100()
	nodes := make([]*slurm.Node, cfg.Nodes)
	for i := range nodes {
		nodes[i] = slurm.NewNode(fmt.Sprintf("node%d", i), spec, cfg.GPUsPerNode, slurm.GresNVGpuFreq)
	}
	cluster := slurm.NewCluster(nodes...)
	cluster.RegisterPlugin(&slurm.NVGpuFreqPlugin{Controller: cluster})
	cluster.SetFaultInjector(inj)
	cluster.SetTelemetry(tel)

	app := apps.NewCloverLeaf()
	plan := apps.FreqPlan{}
	for _, k := range app.Kernels {
		plan[k.Name] = spec.MinCoreMHz()
	}
	var runRes *apps.RunResult
	job := &slurm.Job{
		Name:        fmt.Sprintf("chaos-ep%d", r.Episode),
		User:        "alice",
		NumNodes:    cfg.JobNodes,
		Exclusive:   true,
		Gres:        map[slurm.GRES]bool{slurm.GresNVGpuFreq: true},
		MaxRequeues: cfg.MaxRequeues,
		Run: func(alloc *slurm.Allocation) error {
			rc := apps.RunConfig{
				Spec:          spec,
				Nodes:         cfg.JobNodes,
				GPUsPerNode:   cfg.GPUsPerNode,
				LocalNx:       32,
				LocalNy:       32,
				Steps:         cfg.Steps,
				StateRows:     8,
				FunctionalCap: 128,
				Plan:          plan,
				Net:           mpi.EDRFabric(),
				Devices:       alloc.GPUs(),
				User:          "alice",
				Fault:         inj,
				Health:        reg,
				Telemetry:     tel,
			}
			res, err := apps.Run(app, rc)
			if err != nil {
				return err
			}
			runRes = res
			return nil
		},
	}
	h, err := cluster.SubmitAsync(job)
	if err != nil {
		r.addViolation(r.Episode, "terminates", fmt.Sprintf("%s: submit: %v", tag, err))
		return attemptResult{}
	}

	// Invariant 1 (termination): the job must finish within the real
	// wall-clock deadline even when ranks die or nodes disappear.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Deadline)
	jobRes, werr := h.WaitContext(ctx)
	cancel()
	if werr != nil {
		r.addViolation(r.Episode, "terminates", fmt.Sprintf(
			"%s: job not done within %v: %v", tag, cfg.Deadline, werr))
		// Grace drain so a hung episode does not poison the next ones;
		// if even that fails, further inspection is unsafe.
		grace, cancel := context.WithTimeout(context.Background(), cfg.Deadline)
		jobRes, werr = h.WaitContext(grace)
		cancel()
		if werr != nil {
			return attemptResult{}
		}
	}
	requeues := h.Requeues()

	// Invariant 3 (energy conservation): the energy billed to the job,
	// across every requeue, never exceeds the energy the cluster's
	// devices actually dissipated, and is never negative.
	var totalJ float64
	for _, n := range cluster.Nodes() {
		for _, g := range n.GPUs {
			totalJ += g.EnergyBetween(0, g.Now())
		}
	}
	if jobRes.EnergyJ < -1e-9 || jobRes.EnergyJ > totalJ+1e-6 {
		r.addViolation(r.Episode, "energy-conservation", fmt.Sprintf(
			"%s: job billed %.6f J, cluster dissipated %.6f J", tag, jobRes.EnergyJ, totalJ))
	}

	// Invariant 4 (retry bounds): the governor never spends more vendor
	// calls per GPU than the retry policy allows per submission.
	pol := governor.DefaultRetryPolicy()
	bound := int64(pol.MaxAttempts) * int64(len(app.Kernels)) * int64(cfg.Steps) * int64(requeues+1)
	for _, n := range cluster.Nodes() {
		for i := range n.GPUs {
			site := nvml.SiteSetAppClocks + ":" + fmt.Sprintf("%s/gpu%d", n.Name, i)
			if got := inj.CallCount(site); got > bound {
				r.addViolation(r.Episode, "retry-bounds", fmt.Sprintf(
					"%s: %s consulted %d times, policy allows %d", tag, site, got, bound))
			}
		}
	}

	// Invariant 6 (privilege windows): once every node is back in
	// service, the clock-set API must be restricted again on every GPU —
	// no job may leave a privilege window open.
	cluster.SetFaultInjector(nil)
	for _, n := range cluster.Nodes() {
		if n.Down() {
			n.Revive()
		}
		lib, err := nvml.New(n.GPUs...)
		if err != nil {
			r.addViolation(r.Episode, "privilege-window", fmt.Sprintf("%s: %s: %v", tag, n.Name, err))
			continue
		}
		if err := lib.Init(); err != nil {
			r.addViolation(r.Episode, "privilege-window", fmt.Sprintf("%s: %s: %v", tag, n.Name, err))
			continue
		}
		for i := range n.GPUs {
			hd, err := lib.DeviceGetHandleByIndex(i)
			if err != nil {
				r.addViolation(r.Episode, "privilege-window", fmt.Sprintf("%s: %s/gpu%d: %v", tag, n.Name, i, err))
				continue
			}
			restricted, err := hd.GetAPIRestriction(nvml.APISetApplicationClocks)
			if err != nil {
				r.addViolation(r.Episode, "privilege-window", fmt.Sprintf("%s: %s/gpu%d: %v", tag, n.Name, i, err))
				continue
			}
			if !restricted {
				r.addViolation(r.Episode, "privilege-window", fmt.Sprintf(
					"%s: %s/gpu%d: clock-set API still unrestricted after the job", tag, n.Name, i))
			}
		}
	}

	return attemptResult{
		ok:        true,
		trace:     canonicalTrace(inj.Trace(), reg.Transitions()),
		resultKey: resultKey(jobRes, runRes, requeues),
		telemetry: telemetrySnapshot(tel),
		faults:    len(inj.Trace()),
		requeues:  requeues,
		jobErr:    errText(jobRes.Err),
	}
}

// telemetrySnapshot renders an attempt's registry in the canonical
// byte-comparable form: the deterministic exposition text followed by
// the canonical span log.
func telemetrySnapshot(tel *telemetry.Registry) string {
	var b strings.Builder
	if err := tel.WriteText(&b); err != nil {
		return "exposition error: " + err.Error()
	}
	for _, s := range tel.Spans() {
		fmt.Fprintf(&b, "span %d parent=%d track=%q name=%q kind=%q start=%.9f end=%.9f\n",
			s.ID, s.Parent, s.Track, s.Name, s.Kind, s.StartSec, s.EndSec)
	}
	return b.String()
}

// canonicalTrace renders fired faults and breaker transitions in a
// stable byte-comparable form.
func canonicalTrace(events []fault.Event, trs []resilience.Transition) string {
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "fault %s call=%d rule=%q err=%q delay=%.9f\n",
			e.Site, e.Call, e.Rule, e.Err, e.DelaySec)
	}
	for _, t := range trs {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// resultKey fingerprints a run outcome bit-exactly (float fields go in
// as their IEEE-754 bit patterns).
func resultKey(jobRes *slurm.JobResult, runRes *apps.RunResult, requeues int) string {
	key := fmt.Sprintf("requeues=%d job_energy=%016x job_err=%q",
		requeues, math.Float64bits(jobRes.EnergyJ), errText(jobRes.Err))
	if runRes != nil {
		key += fmt.Sprintf(" time=%016x energy=%016x clock_sets=%d degradations=%d",
			math.Float64bits(runRes.TimeSec), math.Float64bits(runRes.EnergyJ),
			runRes.ClockSets, len(runRes.Degradations))
	}
	return key
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// settle waits for the goroutine count to return to the baseline.
func settle(base int, timeout time.Duration) (int, bool) {
	deadline := time.Now().Add(timeout)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(2 * time.Millisecond)
	}
}
