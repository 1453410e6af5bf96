package kernelir_test

import (
	"math"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/kernelir"
	"synergy/internal/microbench"
)

// effectiveTraffic is the factor the device model applies: 0 (unset)
// and 1 both mean no reuse, and both disassemble without a traffic
// attribute.
func effectiveTraffic(k *kernelir.Kernel) float64 {
	if k.TrafficFactor == 0 {
		return 1
	}
	return k.TrafficFactor
}

// TestSuiteRoundTripKeepsIdentity: for every suite and micro-benchmark
// kernel, Assemble(Disassemble(k)) has k's fingerprint and a
// bit-identical effective traffic factor — a .kir round trip shares a
// memo slot with its source only when it also shares its ground truth.
func TestSuiteRoundTripKeepsIdentity(t *testing.T) {
	t.Parallel()
	var ks []*kernelir.Kernel
	for _, b := range benchsuite.All() {
		ks = append(ks, b.Kernel)
	}
	micro, err := microbench.Kernels(microbench.DefaultSet())
	if err != nil {
		t.Fatal(err)
	}
	ks = append(ks, micro...)
	for _, k := range ks {
		back, err := kernelir.Assemble(k.Disassemble())
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if kernelir.Fingerprint(back) != kernelir.Fingerprint(k) {
			t.Errorf("%s: round trip changed the fingerprint", k.Name)
		}
		if math.Float64bits(effectiveTraffic(back)) != math.Float64bits(effectiveTraffic(k)) {
			t.Errorf("%s: traffic factor %v round-trips to %v", k.Name, k.TrafficFactor, back.TrafficFactor)
		}
	}
}
