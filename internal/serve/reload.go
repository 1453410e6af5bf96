package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"sync"

	"synergy/internal/features"
	"synergy/internal/metrics"
	"synergy/internal/model"
)

// activeBundle is one fully validated, servable model bundle together
// with its content fingerprint and its pool of prediction sessions.
// The Server holds exactly one in an atomic pointer; advise captures
// the pointer once per request and works exclusively from that capture,
// so a response is always computed from a single bundle even while a
// reload swaps the pointer mid-flight. The fingerprint echoed on every
// response is the proof.
type activeBundle struct {
	m    *model.Models
	fp   string
	pool sync.Pool
}

// newActiveBundle validates the bundle (model.Models.Check via
// NewPredictor) and computes its fingerprint. A bundle that fails
// either never becomes active — the daemon cannot serve from an unfit
// or half-loaded bundle by construction.
func newActiveBundle(m *model.Models) (*activeBundle, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: nil model bundle")
	}
	if _, err := m.NewPredictor(); err != nil {
		return nil, err
	}
	fp, err := m.Fingerprint()
	if err != nil {
		return nil, err
	}
	ab := &activeBundle{m: m, fp: fp}
	ab.pool.New = func() any {
		p, err := m.NewPredictor()
		if err != nil {
			// Unreachable: the bundle was validated before it became
			// active, and Check is a pure function of the bundle.
			panic(err)
		}
		return p
	}
	return ab, nil
}

// goldenProbes are the synthetic feature vectors of the reload
// self-test: a compute-bound, a memory-bound and a mixed kernel, the
// three regimes the §6.2 frequency search distinguishes. Any bundle
// fit for serving must produce finite positive predictions for all of
// them.
func goldenProbes() []features.Vector {
	return []features.Vector{
		{FloatAdd: 64, FloatMul: 48, IntAdd: 16, GlAccess: 4},
		{GlAccess: 96, IntAdd: 8, LocAccess: 16},
		{IntAdd: 24, IntMul: 12, FloatAdd: 24, FloatMul: 12, SF: 4, GlAccess: 12, LocAccess: 8},
	}
}

// goldenTargets are the energy targets the self-test exercises.
var goldenTargets = []string{"MAX_PERF", "MIN_ENERGY", "MIN_EDP"}

// plausibleRatio bounds how far a candidate prediction may sit from the
// live bundle's before the reload is rejected as implausible. Wide on
// purpose: retrained bundles legitimately move predictions, but a
// bundle predicting 10^5× the live cost for the same probe is broken,
// not retrained.
const plausibleRatio = 1e4

// selfTest gates a reload: the candidate must serve the same device,
// advise every golden probe under every golden target with finite
// positive time/energy and an in-table frequency, and land within
// plausibleRatio of the live bundle's predictions.
func selfTest(live, cand *model.Models) error {
	if cand.Spec.Name != live.Spec.Name {
		return fmt.Errorf("serve: candidate bundle serves device %q, live bundle serves %q",
			cand.Spec.Name, live.Spec.Name)
	}
	lp, err := live.NewPredictor()
	if err != nil {
		return fmt.Errorf("serve: live bundle unfit during self-test: %w", err)
	}
	cp, err := cand.NewPredictor()
	if err != nil {
		return fmt.Errorf("serve: candidate bundle unfit: %w", err)
	}
	finite := func(x float64) bool { return x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) }
	for _, tname := range goldenTargets {
		target, err := metrics.ParseTarget(tname)
		if err != nil {
			return err
		}
		for pi, v := range goldenProbes() {
			ca, err := cp.Advise(v, target)
			if err != nil {
				return fmt.Errorf("serve: candidate bundle failed golden probe %d under %s: %w", pi, tname, err)
			}
			if !finite(ca.TimeNs) || !finite(ca.EnergyNanoJ) {
				return fmt.Errorf("serve: candidate bundle predicts non-finite cost (t=%g ns, e=%g nJ) for golden probe %d under %s",
					ca.TimeNs, ca.EnergyNanoJ, pi, tname)
			}
			inTable := false
			for _, f := range cand.Spec.CoreFreqsMHz {
				if f == ca.FreqMHz {
					inTable = true
					break
				}
			}
			if !inTable {
				return fmt.Errorf("serve: candidate bundle advises off-table frequency %d MHz for golden probe %d under %s",
					ca.FreqMHz, pi, tname)
			}
			la, err := lp.Advise(v, target)
			if err != nil {
				// The live bundle cannot judge this probe; the candidate
				// already proved itself finite and in-table.
				continue
			}
			for _, pair := range [][2]float64{{ca.TimeNs, la.TimeNs}, {ca.EnergyNanoJ, la.EnergyNanoJ}} {
				if pair[1] <= 0 {
					continue
				}
				r := pair[0] / pair[1]
				if r < 1/plausibleRatio || r > plausibleRatio {
					return fmt.Errorf("serve: candidate bundle prediction implausible (%.3gx the live bundle) for golden probe %d under %s",
						r, pi, tname)
				}
			}
		}
	}
	return nil
}

// Reload validates the candidate bundle and, if it passes, atomically
// swaps it in as the serving bundle. On any failure the live bundle
// keeps serving untouched — there is no intermediate state. Reloads
// are serialized; concurrent requests keep being answered from
// whichever bundle is active when they capture it.
func (s *Server) Reload(cand *model.Models) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	nb, err := newActiveBundle(cand)
	if err != nil {
		return s.rejectReload(err)
	}
	live := s.bundle.Load()
	if err := selfTest(live.m, cand); err != nil {
		return s.rejectReload(err)
	}
	s.bundle.Store(nb)
	s.reg.Counter("serve_reloads_total", "result", "ok").Inc()
	return nil
}

// ReloadFromPath loads a bundle file (SaveModels format) and Reloads
// it. This is the SIGHUP path in cmd/synergy-serve.
func (s *Server) ReloadFromPath(path string) error {
	cand, err := model.LoadFile(path)
	var pe *fs.PathError
	if errors.As(err, &pe) && pe.Op == "open" {
		err = fmt.Errorf("serve: opening bundle: %w", err)
	}
	if err != nil {
		return s.rejectReload(err)
	}
	return s.Reload(cand)
}

func (s *Server) rejectReload(err error) error {
	s.reg.Counter("serve_reloads_total", "result", "rejected").Inc()
	return err
}

// ReloadRequest is the /v1/reload body: exactly one of Path (a bundle
// file on the daemon's filesystem) or Bundle (the bundle JSON inline).
type ReloadRequest struct {
	Path   string          `json:"path,omitempty"`
	Bundle json.RawMessage `json:"bundle,omitempty"`
}

func (s *Server) handleReload(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req ReloadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return decodeError("reload", err)
	}
	if (req.Path == "") == (len(req.Bundle) == 0) {
		return badRequest(`serve: reload needs exactly one of "path" or "bundle"`)
	}
	if err := s.faultPoint(ctx, SiteReload); err != nil {
		return err
	}
	var err error
	if req.Path != "" {
		err = s.ReloadFromPath(req.Path)
	} else {
		var cand *model.Models
		if cand, err = model.LoadModels(bytes.NewReader(req.Bundle)); err != nil {
			err = s.rejectReload(err)
		} else {
			err = s.Reload(cand)
		}
	}
	if err != nil {
		return &httpError{code: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	b := s.bundle.Load()
	writeJSON(w, http.StatusOK, map[string]string{
		"status": "ok",
		"device": b.m.Spec.Name,
		"algo":   b.m.Algo,
		"bundle": b.fp,
	})
	return nil
}
