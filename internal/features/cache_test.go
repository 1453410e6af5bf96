package features

import (
	"math"
	"strings"
	"sync"
	"testing"

	"synergy/internal/kernelir"
)

// Extraction must run exactly once per kernel fingerprint: the second
// Extract is a memo hit that skips Validate and BuildLoopTree.
func TestExtractMemoizedExactlyOnce(t *testing.T) {
	k := buildSaxpy(t)
	fp := kernelir.Fingerprint(k)

	ResetCache()
	var mu sync.Mutex
	count := map[string]int{}
	SetHook(func(fp string) {
		mu.Lock()
		count[fp]++
		mu.Unlock()
	})
	defer SetHook(nil)

	first, err := Extract(k)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Extract(k)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("repeat %d: vector changed: %+v != %+v", i, again, first)
		}
	}
	if count[fp] != 1 {
		t.Fatalf("kernel extracted %d times, want exactly 1", count[fp])
	}

	// A content-identical kernel built separately shares the fingerprint
	// and therefore the memo entry.
	if _, err := Extract(buildSaxpy(t)); err != nil {
		t.Fatal(err)
	}
	if count[fp] != 1 {
		t.Fatalf("identical kernel re-extracted (count %d), want memo hit", count[fp])
	}
}

// Failed extractions must not be memoized; kernels here are built raw
// so Validate fails (register never written).
func TestExtractErrorNotMemoized(t *testing.T) {
	k := &kernelir.Kernel{Name: "broken", NumIntRegs: 1, NumFloatRegs: 1,
		Body: []kernelir.Instr{{Op: kernelir.OpStoreGF, A: 0, B: 0, C: 0}}}
	ResetCache()
	if _, err := Extract(k); err == nil {
		t.Fatal("invalid kernel extracted without error")
	}
	if CacheSize() != 0 {
		t.Fatalf("failed extraction memoized (cache size %d)", CacheSize())
	}
	if _, err := Extract(k); err == nil {
		t.Fatal("invalid kernel must keep failing")
	}
}

func TestFromMapRoundTrip(t *testing.T) {
	v := Vector{IntAdd: 3, FloatMul: 7, GlAccess: 2.5, SF: 1}
	got, err := FromMap(v.ToMap())
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("round trip %+v != %+v", got, v)
	}
	// Partial maps default missing classes to zero.
	got, err = FromMap(map[string]float64{"k_float_add": 4})
	if err != nil {
		t.Fatal(err)
	}
	if (got != Vector{FloatAdd: 4}) {
		t.Fatalf("partial map = %+v", got)
	}
	if _, err := FromMap(map[string]float64{"k_bogus": 1}); err == nil || !strings.Contains(err.Error(), "unknown feature") {
		t.Errorf("unknown feature accepted: %v", err)
	}
	if _, err := FromMap(map[string]float64{"k_sf": -1}); err == nil {
		t.Error("negative count accepted")
	}
	// NaN and +Inf pass a plain val < 0 check; the error must name the
	// feature, not surface later as an invalid predicted point.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := FromMap(map[string]float64{"k_float_add": bad, "k_sf": 2})
		if err == nil || !strings.Contains(err.Error(), `"k_float_add"`) || !strings.Contains(err.Error(), "finite") {
			t.Errorf("FromMap(k_float_add=%v) = %v, want an error naming the feature", bad, err)
		}
	}
}

// FromMap is the serve daemon's boundary for pre-extracted kernels: any
// map gives either an error or a finite, non-negative vector that
// round-trips through ToMap, and never panics. The fuzzer names up to a
// few features (comma-separated; unknown names and repeats included)
// and gives them the three values in turn.
func FuzzFeaturesFromMap(f *testing.F) {
	f.Add("k_float_add,k_sf", 1.0, 2.5, 0.0)
	f.Add("k_int_add,k_bogus", 3.0, 1.0, 1.0)
	f.Add("k_gl_access", math.NaN(), 0.0, 0.0)
	f.Add("k_loc_access,k_int_bw,k_int_bw", math.Inf(1), -1.0, 7.0)
	f.Add("k_float_mul,k_float_div", math.MaxFloat64, math.SmallestNonzeroFloat64, 0.0)
	f.Add("k_int_div", math.Copysign(0, -1), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, names string, a, b, c float64) {
		vals := [3]float64{a, b, c}
		m := map[string]float64{}
		for i, name := range strings.Split(names, ",") {
			m[name] = vals[i%len(vals)]
		}
		v, err := FromMap(m)
		if err != nil {
			return
		}
		for i, x := range v.Slice() {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				t.Fatalf("FromMap(%v) accepted %s = %v", m, Names[i], x)
			}
		}
		back, err := FromMap(v.ToMap())
		if err != nil {
			t.Fatalf("FromMap(ToMap(%+v)): %v", v, err)
		}
		if back != v {
			t.Fatalf("round trip %+v != %+v", back, v)
		}
	})
}
