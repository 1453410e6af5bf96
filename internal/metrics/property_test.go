package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// randomSweep builds a plausible randomized characterisation: ascending
// frequencies with monotonically decreasing time and an energy valley —
// plus multiplicative noise, so selection logic sees realistic,
// non-convex sweeps.
func randomSweep(rng *rand.Rand) *Sweep {
	n := 5 + rng.Intn(40)
	points := make([]Point, n)
	f := 500 + rng.Intn(200)
	valley := rng.Float64() // position of the min-energy frequency, 0..1
	for i := range points {
		x := float64(i) / float64(n-1)
		noise := func() float64 { return 1 + 0.2*(rng.Float64()-0.5) }
		// Time falls with frequency; energy is a parabola around the
		// valley.
		t := (2 - x) * noise()
		e := (1 + 2*(x-valley)*(x-valley)) * noise()
		points[i] = Point{FreqMHz: f, TimeSec: t, EnergyJ: e}
		f += 10 + rng.Intn(50)
	}
	// Any point may be the driver default.
	base := points[rng.Intn(n)].FreqMHz
	s, err := NewSweep(points, base)
	if err != nil {
		panic(err)
	}
	return s
}

// minEnergy scans the sweep longhand for its first minimum-energy
// point, independently of the selection code under test.
func minEnergy(s *Sweep) Point {
	best := s.Points[0]
	for _, p := range s.Points[1:] {
		if p.EnergyJ < best.EnergyJ {
			best = p
		}
	}
	return best
}

// TestESPLInvariants checks the §5 metric invariants across randomized
// seeded sweeps: the baseline saves exactly 0% energy, performance loss
// is never negative, and no configuration saves 100% or more.
func TestESPLInvariants(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		s := randomSweep(rng)
		def := s.BaselinePoint()
		if got := s.EnergySavingPct(def); got != 0 {
			t.Fatalf("trial %d: baseline saving = %v, want exactly 0", trial, got)
		}
		if got := s.PerfLossPct(def); got != 0 {
			t.Fatalf("trial %d: baseline perf loss = %v, want 0", trial, got)
		}
		for _, p := range s.Points {
			if pl := s.PerfLossPct(p); pl < 0 || math.IsNaN(pl) {
				t.Fatalf("trial %d: PL(%d MHz) = %v, want non-negative", trial, p.FreqMHz, pl)
			}
			if es := s.EnergySavingPct(p); es >= 100 || math.IsNaN(es) {
				t.Fatalf("trial %d: ES(%d MHz) = %v, want < 100", trial, p.FreqMHz, es)
			}
		}
	}
}

// TestESSelectionAchievesRequestedSaving: the configuration ES_x picks
// must actually realise at least x% of the potential saving, and must be
// the fastest one that does.
func TestESSelectionAchievesRequestedSaving(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		s := randomSweep(rng)
		def := s.BaselinePoint()
		minE := minEnergy(s)
		potential := def.EnergyJ - minE.EnergyJ
		x := 1 + 99*rng.Float64()
		got, err := s.Select(ES(x))
		if err != nil {
			t.Fatal(err)
		}
		if potential <= 0 {
			// No savings possible: ES_x degenerates to the default.
			if got != def {
				t.Fatalf("trial %d: no potential saving but ES_%g picked %+v", trial, x, got)
			}
			continue
		}
		wantE := def.EnergyJ - x/100*potential
		if got.EnergyJ > wantE+1e-9*def.EnergyJ {
			t.Fatalf("trial %d: ES_%g picked %v J, above target %v J", trial, x, got.EnergyJ, wantE)
		}
		// No eligible configuration is strictly faster.
		for _, p := range s.Points {
			if p.EnergyJ <= wantE+1e-12*def.EnergyJ && p.TimeSec < got.TimeSec {
				t.Fatalf("trial %d: ES_%g picked %+v but %+v is eligible and faster", trial, x, got, p)
			}
		}
	}
}

// TestPLSelectionRespectsLossBudget: PL_x never picks a configuration
// slower than the allowed loss interval, and picks the cheapest eligible
// one.
func TestPLSelectionRespectsLossBudget(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		s := randomSweep(rng)
		def := s.BaselinePoint()
		minE := minEnergy(s)
		x := 1 + 99*rng.Float64()
		got, err := s.Select(PL(x))
		if err != nil {
			t.Fatal(err)
		}
		slow := math.Max(minE.TimeSec, def.TimeSec)
		targetT := def.TimeSec + x/100*(slow-def.TimeSec)
		if got.TimeSec > targetT+1e-9*def.TimeSec {
			t.Fatalf("trial %d: PL_%g picked %v s, above budget %v s", trial, x, got.TimeSec, targetT)
		}
		for _, p := range s.Points {
			if p.TimeSec <= targetT+1e-12*def.TimeSec && p.EnergyJ < got.EnergyJ {
				t.Fatalf("trial %d: PL_%g picked %+v but %+v is eligible and cheaper", trial, x, got, p)
			}
		}
	}
}

// TestSelectionsLieOnOrInsideTheSweep: every target selection returns a
// member of the sweep, and fixed targets return their true optima.
func TestSelectionsLieOnOrInsideTheSweep(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		s := randomSweep(rng)
		for _, target := range StandardTargets {
			got, err := s.Select(target)
			if err != nil {
				t.Fatal(err)
			}
			if p, ok := s.PointAt(got.FreqMHz); !ok || p != got {
				t.Fatalf("trial %d: %s selected a point outside the sweep: %+v", trial, target, got)
			}
			for _, p := range s.Points {
				if ObjectiveValue(target, p) < ObjectiveValue(target, got) {
					switch target.Kind {
					case KindMaxPerf, KindMinEnergy, KindMinEDP, KindMinED2P:
						t.Fatalf("trial %d: %s picked %+v, but %+v scores better", trial, target, got, p)
					}
				}
			}
		}
	}
}
