package hw

import (
	"strings"
	"testing"
)

func testFleet(t *testing.T, budget Budget, names ...string) *Fleet {
	t.Helper()
	f, err := FleetFromNames(names, budget)
	if err != nil {
		t.Fatalf("FleetFromNames(%v): %v", names, err)
	}
	return f
}

func TestFleetFromNamesOrderAndKeys(t *testing.T) {
	t.Parallel()
	f := testFleet(t, Budget{}, "v100", "mi100", "xeon")
	if f.Name != "v100+mi100+xeon" {
		t.Errorf("fleet name %q", f.Name)
	}
	want := []string{"v100", "mi100", "xeon"}
	for i, k := range want {
		if f.Devices[i].Key != k {
			t.Errorf("device %d key %q, want %q (order must be preserved)", i, f.Devices[i].Key, k)
		}
		if f.DeviceByKey(k) != i {
			t.Errorf("DeviceByKey(%q) = %d, want %d", k, f.DeviceByKey(k), i)
		}
	}
	if f.DeviceByKey("h100") != -1 {
		t.Error("DeviceByKey for absent device should be -1")
	}
}

func TestFleetValidateRejections(t *testing.T) {
	t.Parallel()
	if _, err := FleetFromNames(nil, Budget{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := FleetFromNames([]string{"v100", "v100"}, Budget{}); err == nil {
		t.Error("duplicate device key accepted")
	}
	if _, err := FleetFromNames([]string{"v100", "nope"}, Budget{}); err == nil {
		t.Error("unknown device accepted")
	}
	// Power budget below the idle floor can never host anything.
	if _, err := FleetFromNames([]string{"v100", "mi100"}, Budget{PowerW: 30}); err == nil {
		t.Error("power budget below the idle floor accepted")
	}
	// Area budget smaller than the summed die area.
	if _, err := FleetFromNames([]string{"v100", "a100"}, Budget{AreaMM2: 1000}); err == nil {
		t.Error("area budget below the fleet die area accepted")
	}
	if _, err := NewFleet("bad", Budget{}, FleetDevice{Key: "", Spec: V100()}); err == nil {
		t.Error("empty device key accepted")
	}
	if _, err := NewFleet("bad", Budget{}, FleetDevice{Key: "v100"}); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := NewFleet("bad", Budget{PowerW: -1}, FleetDevice{Key: "v100", Spec: V100()}); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestFleetPowerAccounting(t *testing.T) {
	t.Parallel()
	f := testFleet(t, Budget{PowerW: 330}, "v100", "mi100", "xeon")
	idle := V100().IdlePowerW + MI100().IdlePowerW + Xeon8160().IdlePowerW
	if got := f.TotalIdleW(); got != idle {
		t.Errorf("TotalIdleW = %v, want %v", got, idle)
	}
	if got := f.IdleOthersW(0); got != MI100().IdlePowerW+Xeon8160().IdlePowerW {
		t.Errorf("IdleOthersW(0) = %v", got)
	}
	if got := f.FleetPowerW(1, 200); got != 200+V100().IdlePowerW+Xeon8160().IdlePowerW {
		t.Errorf("FleetPowerW(1, 200) = %v", got)
	}
	// Feasibility against the budget: 330 - idleOthers(v100) = 258 W
	// headroom for the V100 board.
	if !f.Feasible(0, 250) {
		t.Error("250 W on v100 should fit the 330 W budget")
	}
	if f.Feasible(0, 280) {
		t.Error("280 W on v100 should exceed the 330 W budget")
	}
	unbounded := testFleet(t, Budget{}, "v100")
	if !unbounded.Feasible(0, 1e6) {
		t.Error("unset budget must admit everything")
	}
}

func TestDeviceClassAndCatalog(t *testing.T) {
	t.Parallel()
	wantClass := map[string]DeviceClass{
		"v100": ClassThroughput, "a100": ClassThroughput, "h100": ClassThroughput,
		"mi100": ClassThroughput,
		"xeon":  ClassSerial, "xeon8480": ClassSerial,
		"alveo": ClassAccelerator,
	}
	names := BuiltinNames()
	if len(names) != len(wantClass) {
		t.Fatalf("BuiltinNames() = %v, want %d entries", names, len(wantClass))
	}
	for _, n := range names {
		s, err := SpecByName(n)
		if err != nil {
			t.Fatalf("SpecByName(%q): %v", n, err)
		}
		if s.Class != wantClass[n] {
			t.Errorf("%s class = %v, want %v", n, s.Class, wantClass[n])
		}
		if s.AreaMM2 <= 0 {
			t.Errorf("%s has no die area; the fleet area budget needs one", n)
		}
	}
	for c, want := range map[DeviceClass]string{
		ClassThroughput: "throughput", ClassSerial: "serial",
		ClassAccelerator: "accelerator", DeviceClass(9): "DeviceClass(9)",
	} {
		if c.String() != want {
			t.Errorf("DeviceClass(%d).String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestBudgetString(t *testing.T) {
	t.Parallel()
	cases := map[Budget]string{
		{}:                           "unconstrained",
		{PowerW: 330}:                "330 W",
		{AreaMM2: 2500}:              "2500 mm²",
		{PowerW: 330, AreaMM2: 2500}: "330 W / 2500 mm²",
	}
	for b, want := range cases {
		if got := b.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", b, got, want)
		}
	}
}

// TestSpecByNameErrorNamesWholeCatalog is the regression test for the
// stale hard-coded device list the error message used to carry: every
// catalog entry must appear in it.
func TestSpecByNameErrorNamesWholeCatalog(t *testing.T) {
	t.Parallel()
	_, err := SpecByName("nope")
	if err == nil {
		t.Fatal("unknown device accepted")
	}
	for _, n := range BuiltinNames() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("SpecByName error %q does not mention catalog device %q", err, n)
		}
	}
}
