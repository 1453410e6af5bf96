package chaos

import (
	"math/rand"
	"strings"
	"testing"
)

// TestServeSoakHoldsInvariants runs the full serve-chaos soak: every
// episode's scripted phase must replay byte-for-byte and every burst
// must satisfy the overload invariants.
func TestServeSoakHoldsInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("serve soak skipped in -short")
	}
	rep, err := ServeSoak(ServeConfig{Seed: 1, Episodes: 8, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations() {
		t.Errorf("%s", v)
	}
	if got := len(rep.Episodes); got != 8 {
		t.Fatalf("%d episodes ran, want 8", got)
	}
	if rep.Faults() == 0 {
		t.Error("no faults fired across the whole soak; the scenarios are not biting")
	}
	// The menu should get decent coverage across 8 seeded episodes.
	if got := len(rep.Archetypes()); got < 3 {
		t.Errorf("only %d distinct archetypes exercised: %v", got, rep.Archetypes())
	}
}

// TestServeSoakIsReproducible: the soak about the daemon's determinism
// must itself be deterministic — same seed, same report traces.
func TestServeSoakIsReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("serve soak skipped in -short")
	}
	cfg := ServeConfig{Seed: 42, Episodes: 2}
	r1, err := ServeSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ServeSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Episodes {
		if r1.Episodes[i].Scenario != r2.Episodes[i].Scenario {
			t.Errorf("episode %d scenarios differ:\n%s\nvs\n%s",
				i, r1.Episodes[i].Scenario, r2.Episodes[i].Scenario)
		}
		if r1.Episodes[i].Trace != r2.Episodes[i].Trace {
			t.Errorf("episode %d traces differ across soaks", i)
		}
	}
}

// TestServeScenarioGeneration: serve scenarios are seed-deterministic
// and every line names a serve fault site.
func TestServeScenarioGeneration(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng1 := rand.New(rand.NewSource(seed))
		rng2 := rand.New(rand.NewSource(seed))
		n1, s1 := generateScenario(rng1, serveArchetypes, 2, Config{})
		n2, s2 := generateScenario(rng2, serveArchetypes, 2, Config{})
		if s1 != s2 {
			t.Fatalf("seed %d: scenarios differ:\n%s\nvs\n%s", seed, s1, s2)
		}
		if len(n1) == 0 || len(n1) != len(n2) {
			t.Fatalf("seed %d: archetype names %v vs %v", seed, n1, n2)
		}
		for _, line := range strings.Split(strings.TrimSpace(s1), "\n") {
			if !strings.HasPrefix(line, "serve.") {
				t.Errorf("seed %d: scenario line %q targets a non-serve site", seed, line)
			}
		}
	}
}
