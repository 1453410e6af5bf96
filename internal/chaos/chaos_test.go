package chaos

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"synergy/internal/telemetry"
)

// The soak tests count goroutines per episode, so none run in parallel.

// TestSoakEpisodesHoldInvariants is the headline chaos gate: 25 seeded
// episodes (each run twice for the determinism check) must pass every
// resilience invariant.
func TestSoakEpisodesHoldInvariants(t *testing.T) {
	rep, err := Soak(Config{Seed: 1, Episodes: 25, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations() {
		t.Error(v)
	}
	if len(rep.Episodes) != 25 {
		t.Fatalf("ran %d episodes, want 25", len(rep.Episodes))
	}
	if rep.Faults() == 0 {
		t.Fatal("no injected fault fired across the whole soak — the scenarios are inert")
	}
	// The fixed seed must exercise a broad slice of the archetype menu.
	if got := rep.Archetypes(); len(got) < 6 {
		t.Fatalf("soak exercised only %v, want at least 6 of %d archetypes", got, len(archetypes))
	}
}

// TestSoakIsReproducible: two soaks from the same seed produce
// byte-identical scenarios, traces and result keys.
func TestSoakIsReproducible(t *testing.T) {
	cfg := Config{Seed: 42, Episodes: 4}
	a, err := Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Episodes {
		ea, eb := a.Episodes[i], b.Episodes[i]
		if ea.Scenario != eb.Scenario {
			t.Errorf("episode %d scenarios differ:\n%s\nvs\n%s", i, ea.Scenario, eb.Scenario)
		}
		if ea.Trace != eb.Trace {
			t.Errorf("episode %d traces differ", i)
		}
		if ea.ResultKey != eb.ResultKey {
			t.Errorf("episode %d result keys differ: %s vs %s", i, ea.ResultKey, eb.ResultKey)
		}
	}
}

// TestSoakTelemetryCounters: a soak-level registry receives episode,
// fault and violation counters that agree with the report.
func TestSoakTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	rep, err := Soak(Config{Seed: 5, Episodes: 3, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.CounterTotal("synergy_chaos_episodes_total"); got != int64(len(rep.Episodes)) {
		t.Errorf("episode counter = %d, report has %d episodes", got, len(rep.Episodes))
	}
	if got := snap.CounterTotal("synergy_chaos_faults_total"); got != int64(rep.Faults()) {
		t.Errorf("fault counter = %d, report counted %d", got, rep.Faults())
	}
	if got := snap.CounterTotal("synergy_chaos_violations_total"); got != int64(len(rep.Violations())) {
		t.Errorf("violation counter = %d, report has %d", got, len(rep.Violations()))
	}
}

// TestScenarioGenerationIsSeeded: the generator is a pure function of
// the rng stream, and distinct seeds explore distinct scenarios.
func TestScenarioGenerationIsSeeded(t *testing.T) {
	cfg := Config{}.withDefaults()
	_, s1 := generateScenario(rand.New(rand.NewSource(7)), archetypes, 3, cfg)
	_, s2 := generateScenario(rand.New(rand.NewSource(7)), archetypes, 3, cfg)
	if s1 != s2 {
		t.Fatalf("same seed generated different scenarios:\n%s\nvs\n%s", s1, s2)
	}
	distinct := map[string]bool{}
	for seed := int64(0); seed < 16; seed++ {
		_, s := generateScenario(rand.New(rand.NewSource(seed)), archetypes, 3, cfg)
		distinct[s] = true
	}
	if len(distinct) < 8 {
		t.Fatalf("16 seeds produced only %d distinct scenarios", len(distinct))
	}
}

// TestNodeDeathEpisodeRequeues pins one archetype end to end: a node
// that dies at launch forces a requeue, the job still finishes and the
// trace names the node-fail site.
func TestNodeDeathEpisodeRequeues(t *testing.T) {
	cfg := Config{Seed: 1}.withDefaults()
	// Find a seed whose scenario is exactly a node death (menu search is
	// deterministic, so the pinned seed is stable).
	found := false
	for ep := 0; ep < 200 && !found; ep++ {
		seed := episodeSeed(11, ep)
		names, _ := generateScenario(rand.New(rand.NewSource(seed)), archetypes, 3, cfg)
		if len(names) == 1 && names[0] == "node-death" {
			rep, err := Soak(Config{Seed: 11 + int64(ep)*7919, Episodes: 1})
			if err != nil {
				t.Fatal(err)
			}
			epr := rep.Episodes[0]
			for _, v := range epr.Violations {
				t.Error(v)
			}
			if epr.Requeues != 1 {
				t.Errorf("requeues = %d, want 1", epr.Requeues)
			}
			if epr.JobErr != "" {
				t.Errorf("job failed despite requeue headroom: %s", epr.JobErr)
			}
			if !strings.Contains(epr.Trace, "slurm.node_fail") {
				t.Errorf("trace does not record the node failure:\n%s", epr.Trace)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no pure node-death scenario within 200 episode seeds")
	}
}

// TestSoakDeadlineDefaultIsSane guards the config plumbing.
func TestSoakDeadlineDefaultIsSane(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Deadline < time.Second || cfg.Episodes != 25 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if _, err := Soak(Config{Episodes: 1, JobNodes: 5, Nodes: 2}); err == nil {
		t.Fatal("oversized job accepted")
	}
}
