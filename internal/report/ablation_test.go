package report

import (
	"strings"
	"testing"

	"synergy/internal/apps"
	"synergy/internal/hw"
	"synergy/internal/model"
)

func TestAblationFineGrainedCompetitive(t *testing.T) {
	spec := hw.V100()
	adv, err := model.DefaultAdvisor(spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildAblation(AblationConfig{
		Spec: spec, App: apps.NewCloverLeaf(), Advisor: adv,
		LocalNx: 16384, LocalNy: 16384, Steps: 6,
		StateRows: 8, FunctionalCap: 64, FreqStride: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both tuned configurations must beat the default on EDP.
	if a.CoarseEDP() >= a.BaselineEDP() {
		t.Errorf("coarse tuning did not improve EDP: %.3f vs %.3f", a.CoarseEDP(), a.BaselineEDP())
	}
	if a.FineEDP() >= a.BaselineEDP() {
		t.Errorf("fine tuning did not improve EDP: %.3f vs %.3f", a.FineEDP(), a.BaselineEDP())
	}
	// The oracle fine-grained plan (no model error) must be competitive
	// with the exhaustively-searched single frequency — the §2.2
	// premise that per-kernel tuning does not lose to the best global
	// setting. A small tolerance covers clock-switch overheads.
	if a.FineOracleEDP() > a.CoarseEDP()*1.03 {
		t.Errorf("oracle fine-grained EDP %.4f worse than coarse %.4f",
			a.FineOracleEDP(), a.CoarseEDP())
	}
	// The model-driven plan additionally carries prediction error but
	// must stay within a reasonable band of the oracle.
	if a.FineEDP() > a.FineOracleEDP()*1.25 {
		t.Errorf("model-driven fine EDP %.4f far from oracle %.4f", a.FineEDP(), a.FineOracleEDP())
	}
	// The plan must actually be fine-grained (multiple frequencies).
	if a.DistinctPlannedFrequencies < 2 {
		t.Errorf("plan uses %d distinct frequencies; expected per-kernel diversity",
			a.DistinctPlannedFrequencies)
	}
	if !strings.Contains(a.Render(), "coarse@") {
		t.Error("render incomplete")
	}
}
