package rapl

import (
	"errors"
	"testing"

	"synergy/internal/hw"
)

func newPkg(t *testing.T) (*Package, *hw.Device) {
	t.Helper()
	dev := hw.NewDevice(hw.Xeon8160())
	p, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Init(); err != nil {
		t.Fatal(err)
	}
	return p, dev
}

func TestNewRejectsGPUs(t *testing.T) {
	t.Parallel()
	if _, err := New(hw.NewDevice(hw.V100())); err == nil {
		t.Fatal("GPU accepted by RAPL")
	}
}

func TestLifecycle(t *testing.T) {
	t.Parallel()
	dev := hw.NewDevice(hw.Xeon8160())
	p, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SampledEnergyBetween(0, 1); !errors.Is(err, ErrUninitialized) {
		t.Fatalf("pre-init read: %v", err)
	}
	if err := p.Init(); err != nil {
		t.Fatal(err)
	}
	if err := p.Init(); err == nil {
		t.Fatal("double init accepted")
	}
	if _, err := p.SampledEnergyBetween(0, 1); err != nil {
		t.Fatalf("read after init: %v", err)
	}
}

func TestGovernorAndFrequencyControl(t *testing.T) {
	t.Parallel()
	p, dev := newPkg(t)
	user := User{Name: "u"}

	// Defaults: ondemand, nothing pinned... (base clock as app clock).
	g, err := p.CurrentGovernor()
	if err != nil || g != GovernorOndemand {
		t.Fatalf("initial governor %q, %v", g, err)
	}
	// Pinning requires userspace governor and root.
	if err := p.SetFrequency(Root, 1500); !errors.Is(err, ErrInvalidArg) {
		t.Fatalf("pin under ondemand: %v", err)
	}
	if err := p.SetGovernor(user, GovernorUserspace); !errors.Is(err, ErrNoPermission) {
		t.Fatalf("unprivileged governor change: %v", err)
	}
	if err := p.SetGovernor(Root, GovernorUserspace); err != nil {
		t.Fatal(err)
	}
	if err := p.SetFrequency(user, 1500); !errors.Is(err, ErrNoPermission) {
		t.Fatalf("unprivileged pin: %v", err)
	}
	if err := p.SetFrequency(Root, 1501); !errors.Is(err, ErrInvalidArg) {
		t.Fatalf("bad P-state: %v", err)
	}
	if err := p.SetFrequency(Root, 1500); err != nil {
		t.Fatal(err)
	}
	if got := dev.AppClockMHz(); got != 1500 {
		t.Fatalf("pinned %d, want 1500", got)
	}
	// Back to ondemand restores the default clock.
	if err := p.SetGovernor(Root, GovernorOndemand); err != nil {
		t.Fatal(err)
	}
	if dev.AppClockMHz() != dev.Spec().DefaultCoreMHz {
		t.Fatalf("ondemand left %d MHz", dev.AppClockMHz())
	}
	if err := p.SetGovernor(Root, Governor("performance+")); !errors.Is(err, ErrInvalidArg) {
		t.Fatalf("unknown governor: %v", err)
	}
}

func TestXeonSpecShape(t *testing.T) {
	t.Parallel()
	s := hw.Xeon8160()
	if s.Vendor != hw.Intel {
		t.Fatal("Xeon is not Intel")
	}
	if len(s.CoreFreqsMHz) != 26 || s.MinCoreMHz() != 1000 || s.MaxCoreMHz() != 3500 {
		t.Fatalf("P-state table wrong: %d states [%d, %d]",
			len(s.CoreFreqsMHz), s.MinCoreMHz(), s.MaxCoreMHz())
	}
	if !s.SupportsCoreFreq(2100) {
		t.Fatal("base clock not in table")
	}
}
