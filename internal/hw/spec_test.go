package hw

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// TestFig1FrequencyTables checks the device descriptors against the
// frequency availability the paper reports in Fig. 1.
func TestFig1FrequencyTables(t *testing.T) {
	t.Parallel()
	cases := []struct {
		spec               *Spec
		n, minF, maxF, mem int
	}{
		{V100(), 196, 135, 1530, 877},
		{A100(), 81, 210, 1410, 1215},
		{MI100(), 16, 300, 1502, 1200},
	}
	for _, c := range cases {
		if got := len(c.spec.CoreFreqsMHz); got != c.n {
			t.Errorf("%s: %d core frequencies, want %d", c.spec.Name, got, c.n)
		}
		if got := c.spec.MinCoreMHz(); got != c.minF {
			t.Errorf("%s: min core %d MHz, want %d", c.spec.Name, got, c.minF)
		}
		if got := c.spec.MaxCoreMHz(); got != c.maxF {
			t.Errorf("%s: max core %d MHz, want %d", c.spec.Name, got, c.maxF)
		}
		if got := c.spec.MemFreqMHz; got != c.mem {
			t.Errorf("%s: mem freq %d MHz, want %d", c.spec.Name, got, c.mem)
		}
	}
}

func TestV100DefaultClock(t *testing.T) {
	t.Parallel()
	s := V100()
	if s.DefaultCoreMHz < 1300 || s.DefaultCoreMHz > 1320 {
		t.Fatalf("V100 default clock %d MHz, want ~1312 (paper baseline)", s.DefaultCoreMHz)
	}
	if !s.SupportsCoreFreq(s.DefaultCoreMHz) {
		t.Fatalf("V100 default clock %d not in table", s.DefaultCoreMHz)
	}
}

func TestMI100HasNoDefaultClock(t *testing.T) {
	t.Parallel()
	s := MI100()
	if s.DefaultCoreMHz != 0 {
		t.Fatalf("MI100 must auto-scale (no default clock), got %d", s.DefaultCoreMHz)
	}
	if s.BaselineCoreMHz() != s.MaxCoreMHz() {
		t.Fatalf("MI100 baseline should be the max frequency, got %d", s.BaselineCoreMHz())
	}
}

func TestClockTablesStrictlyAscending(t *testing.T) {
	t.Parallel()
	for name, s := range BuiltinSpecs() {
		fs := s.CoreFreqsMHz
		for i := 1; i < len(fs); i++ {
			if fs[i] <= fs[i-1] {
				t.Fatalf("%s: table not ascending at %d: %d then %d", name, i, fs[i-1], fs[i])
			}
		}
	}
}

func TestSupportsCoreFreqMatchesLinearScan(t *testing.T) {
	t.Parallel()
	s := V100()
	member := make(map[int]bool, len(s.CoreFreqsMHz))
	for _, f := range s.CoreFreqsMHz {
		member[f] = true
	}
	f := func(mhz uint16) bool {
		return s.SupportsCoreFreq(int(mhz)) == member[int(mhz)]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNearestCoreFreq(t *testing.T) {
	t.Parallel()
	s := MI100()
	if got := s.NearestCoreFreq(310); got != 300 {
		t.Errorf("nearest(310) = %d, want 300", got)
	}
	if got := s.NearestCoreFreq(1490); got != 1502 {
		t.Errorf("nearest(1490) = %d, want 1502", got)
	}
	// Ties prefer the lower frequency.
	if got := s.NearestCoreFreq(340); got != 300 {
		t.Errorf("nearest(340) = %d, want 300 (lower on tie)", got)
	}
}

func TestNearestCoreFreqAlwaysSupported(t *testing.T) {
	t.Parallel()
	s := A100()
	f := func(mhz uint16) bool {
		return s.SupportsCoreFreq(s.NearestCoreFreq(int(mhz)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpecValidateRejectsBadSpecs(t *testing.T) {
	t.Parallel()
	type badSpec struct {
		name   string
		mutate func(s *Spec)
	}
	cases := []badSpec{
		{"empty clock table", func(s *Spec) { s.CoreFreqsMHz = nil }},
		// One clock leaves the voltage model 0/0: Evaluate would
		// return a NaN power with a nil error.
		{"one clock", func(s *Spec) { s.CoreFreqsMHz, s.DefaultCoreMHz = []int{1312}, 1312 }},
		{"0 MHz clock", func(s *Spec) { s.CoreFreqsMHz = append([]int{0}, s.CoreFreqsMHz...) }},
		{"negative clock", func(s *Spec) { s.CoreFreqsMHz = append([]int{-5}, s.CoreFreqsMHz...) }},
		{"default clock outside table", func(s *Spec) { s.DefaultCoreMHz = 1311 }},
		{"TDP <= idle", func(s *Spec) { s.TDPWatts = s.IdlePowerW }},
		{"knee fraction > 1", func(s *Spec) { s.BWKneeFrac = 1.5 }},
		{"negative launch overhead", func(s *Spec) { s.LaunchOverheadSec = -1e-6 }},
		{"negative clock-set overhead", func(s *Spec) { s.ClockSetOverheadSec = -1e-4 }},
		{"negative idle power", func(s *Spec) { s.IdlePowerW = -1 }},
		{"negative core coefficient", func(s *Spec) { s.CoreDynCoeff = -1 }},
		{"negative memory coefficient", func(s *Spec) { s.MemDynCoeff = -1 }},
		{"negative leakage coefficient", func(s *Spec) { s.LeakCoeff = -1 }},
	}
	// A NaN or infinity in any float parameter, whichever range check
	// would follow; the fields come from reflection, so a float
	// parameter added to Spec later is covered too.
	typ := reflect.TypeOf(Spec{})
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Float64 {
			continue
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cases = append(cases, badSpec{fmt.Sprintf("%s = %v", typ.Field(i).Name, v),
				func(s *Spec) { reflect.ValueOf(s).Elem().Field(i).SetFloat(v) }})
		}
	}
	for _, c := range cases {
		s := V100()
		c.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestSpecByName(t *testing.T) {
	t.Parallel()
	// Every catalog entry must resolve — the list is derived from
	// BuiltinSpecs so a new device can never be forgotten here.
	for _, name := range BuiltinNames() {
		if _, err := SpecByName(name); err != nil {
			t.Errorf("SpecByName(%q): %v", name, err)
		}
	}
	if _, err := SpecByName("gtx480"); err == nil {
		t.Error("SpecByName(gtx480) should fail")
	}
}

func TestVoltageRangeAndMonotonicity(t *testing.T) {
	t.Parallel()
	s := V100()
	prev := 0.0
	for _, f := range s.CoreFreqsMHz {
		v := s.Voltage(f)
		if v < s.VMinVolts-1e-9 || v > s.VMaxVolts+1e-9 {
			t.Fatalf("voltage %.3f at %d MHz outside [%.3f, %.3f]", v, f, s.VMinVolts, s.VMaxVolts)
		}
		if v < prev {
			t.Fatalf("voltage not monotone at %d MHz", f)
		}
		prev = v
	}
}
