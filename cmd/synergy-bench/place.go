package main

import (
	"fmt"
	"time"

	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/model"
	"synergy/internal/placement"
	"synergy/internal/sweep"
)

// fleetBudgetW is the canonical fleet's power budget.
const fleetBudgetW = 330

// fleetSys is the system under test of train-place: the canonical fleet
// (H100, Xeon 8480+ and Alveo V80 under 330 W) with a Forest bundle and a
// prediction session per device.
type fleetSys struct {
	fleet  *hw.Fleet
	models []*model.Models
	preds  []*model.Predictor
}

func trainFleet(tr *tracer, stride int) (*fleetSys, error) {
	fleet, err := hw.FleetFromNames([]string{"h100", "xeon8480", "alveo"}, hw.Budget{PowerW: fleetBudgetW})
	if err != nil {
		return nil, err
	}
	fs := &fleetSys{fleet: fleet}
	root := tr.begin("setup")
	for _, fd := range fleet.Devices {
		m, err := trainBundle(tr, fd.Spec, stride)
		if err != nil {
			return nil, err
		}
		p, err := m.NewPredictor()
		if err != nil {
			return nil, err
		}
		fs.models = append(fs.models, m)
		fs.preds = append(fs.preds, p)
	}
	tr.end(root)
	return fs, nil
}

// place places pair i on the fleet from ground truth and from the models.
// Both placements must fit the power budget.
func (fs *fleetSys) place(tr *tracer, eng *sweep.Engine, i int32) (gt, pred placement.Placement, err error) {
	sk, t := suite[int(i)/len(targets)], targets[int(i)%len(targets)]
	root := tr.begin("request")
	s := tr.begin("placement.build_gt")
	g, err := placement.BuildGroundTruth(eng, fs.fleet, sk.kernel, sk.items)
	tr.end(s)
	if err != nil {
		return gt, pred, err
	}
	s = tr.begin("placement.select")
	gt, err = g.Select(t)
	tr.end(s)
	if err != nil {
		return gt, pred, err
	}
	s = tr.begin("features.extract")
	v, err := features.Extract(sk.kernel)
	tr.end(s)
	if err != nil {
		return gt, pred, err
	}
	s = tr.begin("placement.build_pred")
	pg, err := placement.BuildPredicted(fs.fleet, fs.preds, v)
	tr.end(s)
	if err != nil {
		return gt, pred, err
	}
	s = tr.begin("placement.select")
	pred, err = pg.Select(t)
	tr.end(s)
	tr.end(root)
	if err != nil {
		return gt, pred, err
	}
	for _, p := range []placement.Placement{gt, pred} {
		if !p.Feasible || p.FleetPowerW > fleetBudgetW {
			return gt, pred, fmt.Errorf("%s %s: %s@%d MHz draws %.1f W of a %d W fleet budget",
				sk.name, t, p.Device, p.FreqMHz, p.FleetPowerW, fleetBudgetW)
		}
	}
	return gt, pred, nil
}

func runTrainPlace(b *bench) error {
	in := genPlace(b.cfg)
	b.markHeap()
	var reps []*fleetSys
	err := b.setup(func() error {
		fs, err := trainFleet(b.tr, b.cfg.stride)
		reps = append(reps, fs)
		return err
	})
	if err != nil {
		return err
	}
	// Training is deterministic: every repetition fits the same bundles.
	for _, fs := range reps {
		for d, m := range fs.models {
			got, err := m.Fingerprint()
			if err != nil {
				return err
			}
			want, err := reps[0].models[d].Fingerprint()
			if err != nil {
				return err
			}
			if got != want {
				err = fmt.Errorf("%s bundle fingerprint %s, first training %s", m.Spec.Name, got, want)
			}
			b.check(err)
		}
	}
	fs := reps[len(reps)-1]
	b.fleet = fs

	// Warm-up places every pair once; the window must place each the
	// same way again.
	eng := sweep.Shared()
	want := make([][2]placement.Placement, pairCount())
	for i := range want {
		gt, pred, err := fs.place(nil, eng, int32(i))
		b.check(err)
		want[i] = [2]placement.Placement{gt, pred}
	}

	var lat, gaps []time.Duration
	ops, failed := 0, 0
	b.startWindow()
	start := time.Now()
	deadline := start.Add(b.cfg.window)
	last := start
	for _, i := range in.Window {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		gaps = append(gaps, t0.Sub(last))
		gt, pred, err := fs.place(nil, eng, i)
		last = time.Now()
		lat = append(lat, last.Sub(t0))
		ops++
		if err == nil && (gt != want[i][0] || pred != want[i][1]) {
			err = fmt.Errorf("pair %d placed %s@%d/%s@%d, warm-up %s@%d/%s@%d", i,
				gt.Device, gt.FreqMHz, pred.Device, pred.FreqMHz,
				want[i][0].Device, want[i][0].FreqMHz, want[i][1].Device, want[i][1].FreqMHz)
		}
		if !b.check(err) {
			failed++
		}
	}
	b.endWindow(ops)
	b.putLatency(float64(ops)/last.Sub(start).Seconds(), lat)
	b.putLoad(ops, failed, gaps)

	if b.tr != nil {
		b.replayPair(len(in.Replay[0]), func(tr *tracer, pass, j int) error {
			_, _, err := fs.place(tr, eng, in.Replay[pass][j])
			return err
		})
	}
	return nil
}
