// Package serve implements the SYnergy frequency-advice daemon: an
// HTTP/JSON front-end over one trained per-device model bundle
// (internal/model). A client submits either the kernel's static feature
// counts (the compiler-pass output of §5) or a raw .kir kernel body,
// plus an energy target, and receives the recommended core frequency
// with the model's predicted time/energy and ES/PL tradeoff.
//
// The daemon is overload-proof by construction (DESIGN.md §15):
//
//   - Admission control: a bounded in-flight gate with a bounded,
//     deadline-aware wait queue. Excess load is shed with 429 +
//     Retry-After instead of queuing without bound; sheds are counted
//     per reason in serve_shed_total.
//   - Deadlines: every request runs under a context budget (the
//     X-Request-Deadline header, or the server default), threaded
//     through feature extraction, prediction and the ground-truth
//     sweep. Work is abandoned the moment its requester stops waiting.
//   - Degraded modes: the ground-truth sweep backend sits behind a
//     wall-clock circuit breaker; repeated sweep timeouts trip it open
//     and requests fall back to model-only advice with a "degraded"
//     field instead of failing. /healthz is pure liveness; /readyz
//     reports ready|degraded|draining with reasons.
//   - Hot reload: POST /v1/reload (or SIGHUP in cmd/synergy-serve)
//     validates a candidate bundle off the request path and swaps it
//     atomically; every response echoes the serving bundle's
//     fingerprint, so reloads are provably atomic.
//
// The hot path is allocation-lean: prediction sessions
// (model.Predictor) are pooled per bundle and reused, the flattened
// forests walk index arrays, and repeated kernels hit the
// fingerprint-keyed feature cache. Request counters, latency
// histograms and gate gauges are exported on /metrics (text) and
// /metrics.json (canonical snapshot).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"synergy/internal/fault"
	"synergy/internal/features"
	"synergy/internal/kernelir"
	"synergy/internal/metrics"
	"synergy/internal/model"
	"synergy/internal/resilience"
	"synergy/internal/sweep"
	"synergy/internal/telemetry"
)

// MaxBatch bounds /v1/batch request fan-out so one request cannot pin
// the daemon arbitrarily long.
const MaxBatch = 1024

// DeadlineHeader carries the per-request budget as a Go duration
// ("250ms", "2s"). Absent, the server default applies.
const DeadlineHeader = "X-Request-Deadline"

// Fault-injection sites the daemon consults (internal/fault). Delays
// at these sites burn *real* time (fault.SleepContext), so injected
// latency interacts with request deadlines exactly like a slow
// dependency would.
const (
	SiteExtract = "serve.extract"
	SitePredict = "serve.predict"
	SiteSweep   = "serve.sweep"
	SiteReload  = "serve.reload"
)

// Config bounds and parameterises the daemon. The zero value means
// "use the default" for every field.
type Config struct {
	// MaxInFlight bounds concurrently executing requests (default 64).
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot (default 256).
	MaxQueue int
	// DefaultDeadline is the request budget when the client sends no
	// X-Request-Deadline header (default 30s).
	DefaultDeadline time.Duration
	// SweepTimeout is the per-request sub-budget of the ground-truth
	// sweep cross-check (default 10s). A sweep slower than this fails
	// the breaker and degrades the response, not the request.
	SweepTimeout time.Duration
	// MaxBodyBytes bounds any client request body (default 4 MiB);
	// larger bodies get 413.
	MaxBodyBytes int64
	// MaxReloadBytes bounds the /v1/reload body (default 256 MiB):
	// inline bundles are operator-supplied model artifacts, far larger
	// than client requests but still bounded.
	MaxReloadBytes int64
	// MaxKernelBytes bounds the raw .kir payload inside a request
	// (default 256 KiB).
	MaxKernelBytes int
	// RetryAfter is the Retry-After hint on shed responses (default 1s).
	RetryAfter time.Duration
	// Breaker parameterises the sweep-backend circuit breaker. The
	// zero value uses FailureThreshold 3, a 5s cool-down and 1 probe
	// success.
	Breaker resilience.Config
	// Clock drives the sweep breaker's transition timestamps; nil uses
	// a monotonic wall clock. The serve-chaos harness scripts it for
	// byte-identical breaker traces.
	Clock resilience.Clock
	// Fault is an optional injector consulted at the Site* points.
	Fault *fault.Injector
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.SweepTimeout <= 0 {
		c.SweepTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.MaxReloadBytes <= 0 {
		c.MaxReloadBytes = 256 << 20
	}
	if c.MaxKernelBytes <= 0 {
		c.MaxKernelBytes = 256 << 10
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Breaker == (resilience.Config{}) {
		c.Breaker = resilience.Config{FailureThreshold: 3, CooldownSec: 5, HalfOpenSuccesses: 1}
	}
	return c
}

// Request is one advice query. Exactly one of Features and KIR must be
// set: Features carries the Table-1 static counts by canonical name
// (features.Names); KIR carries a kernel in .kir assembly, which the
// daemon assembles and runs through the static feature extractor.
type Request struct {
	// Target is the energy target in the paper's notation: MAX_PERF,
	// MIN_ENERGY, MIN_EDP, MIN_ED2P, ES_x, PL_x.
	Target string `json:"target"`
	// Features maps canonical feature names to per-work-item counts.
	Features map[string]float64 `json:"features,omitempty"`
	// KIR is a kernel body in .kir assembly.
	KIR string `json:"kir,omitempty"`
	// Items is the launch size; only consulted with GroundTruth.
	Items int64 `json:"items,omitempty"`
	// GroundTruth asks the daemon to also sweep the kernel through the
	// device model (requires KIR and Items) and report the measured
	// optimum next to the prediction.
	GroundTruth bool `json:"ground_truth,omitempty"`
}

// Response is the advice for one Request.
type Response struct {
	Device      string `json:"device"`
	Algo        string `json:"algo"`
	Target      string `json:"target"`
	FreqMHz     int    `json:"freq_mhz"`
	BaselineMHz int    `json:"baseline_mhz"`
	// TimeNs and EnergyNanoJ are the predicted per-work-item cost at
	// FreqMHz.
	TimeNs      float64 `json:"time_ns_per_item"`
	EnergyNanoJ float64 `json:"energy_nj_per_item"`
	// ESPct / PLPct are the predicted energy saving and performance
	// loss at FreqMHz versus the baseline clock, in percent.
	ESPct float64 `json:"es_pct"`
	PLPct float64 `json:"pl_pct"`
	// Bundle is the content fingerprint of the model bundle this
	// response was computed from — a single bundle by construction,
	// which is what makes hot reloads provably atomic.
	Bundle string `json:"bundle"`
	// Degraded names the degraded mode, when the ground-truth
	// cross-check was skipped or abandoned ("sweep-breaker-open",
	// "sweep-timeout", "sweep-error"). Empty on full service.
	Degraded string `json:"degraded,omitempty"`
	// ActualFreqMHz is the ground-truth optimum (GroundTruth only).
	ActualFreqMHz int `json:"actual_freq_mhz,omitempty"`
}

// BatchResult wraps one Response in /v1/batch, where a single bad item
// must not fail the whole batch.
type BatchResult struct {
	*Response
	Error string `json:"error,omitempty"`
}

type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func payloadTooLarge(format string, args ...any) error {
	return &httpError{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf(format, args...)}
}

// Server is the daemon: an atomically swappable model bundle with its
// pooled prediction sessions, the admission gate, the sweep breaker
// and the telemetry registry backing /metrics.
type Server struct {
	cfg Config
	reg *telemetry.Registry
	mux *http.ServeMux

	bundle   atomic.Pointer[activeBundle]
	gate     *gate
	breaker  *resilience.WallBreaker
	draining atomic.Bool
	reloadMu sync.Mutex
	inj      *fault.Injector

	advises  *telemetry.Counter
	predicts *telemetry.Counter
	errors   *telemetry.Counter
}

// New validates the bundle and builds the daemon around it with
// default bounds. reg may be nil (metrics become no-ops and /metrics
// serves an empty exposition).
func New(m *model.Models, reg *telemetry.Registry) (*Server, error) {
	return NewWithConfig(m, reg, Config{})
}

// NewWithConfig is New with explicit bounds, breaker parameters, clock
// and fault injector.
func NewWithConfig(m *model.Models, reg *telemetry.Registry, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ab, err := newActiveBundle(m)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		gate:     newGate(cfg.MaxInFlight, cfg.MaxQueue, reg),
		breaker:  resilience.NewWallBreaker("serve-sweep", cfg.Breaker, cfg.Clock),
		inj:      cfg.Fault,
		advises:  reg.Counter("serve_advises_total"),
		predicts: reg.Counter("serve_predictions_total"),
		errors:   reg.Counter("serve_errors_total"),
	}
	s.breaker.Inner().SetTelemetry(reg)
	s.bundle.Store(ab)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/advise", s.endpoint("advise", true, s.handleAdvise))
	s.mux.HandleFunc("/v1/batch", s.endpoint("batch", true, s.handleBatch))
	s.mux.HandleFunc("/v1/reload", s.endpoint("reload", false, s.handleReload))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	return s, nil
}

// Models returns the bundle the daemon currently serves.
func (s *Server) Models() *model.Models { return s.bundle.Load().m }

// BundleFingerprint returns the current bundle's content fingerprint.
func (s *Server) BundleFingerprint() string { return s.bundle.Load().fp }

// InFlight returns the number of admitted, unfinished requests.
func (s *Server) InFlight() int { return s.gate.InFlight() }

// InFlightPeak returns the high-water mark of concurrent in-flight
// requests since the server started — never above Config.MaxInFlight.
func (s *Server) InFlightPeak() int { return s.gate.Peak() }

// QueueDepth returns the current admission-queue depth.
func (s *Server) QueueDepth() int { return s.gate.Queued() }

// SweepBreaker returns the breaker guarding the ground-truth sweep
// backend.
func (s *Server) SweepBreaker() *resilience.WallBreaker { return s.breaker }

// StartDraining flips the server into draining mode: /readyz reports
// draining with 503 (so load balancers stop routing) and new gated
// requests are shed with 503; in-flight requests finish normally.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Draining reports whether the server is draining.
func (s *Server) Draining() bool { return s.draining.Load() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// endpoint wraps a POST handler with the full admission pipeline:
// method check, deadline resolution, optional gate admission, body
// bounding, and per-route outcome accounting (serve_requests_total and
// the serve_request_seconds latency histogram).
func (s *Server) endpoint(route string, gated bool, fn func(ctx context.Context, w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		limit := s.cfg.MaxBodyBytes
		if route == "reload" {
			limit = s.cfg.MaxReloadBytes
		}
		outcome := s.serveOne(w, r, gated, limit, fn)
		s.reg.Counter("serve_requests_total", "route", route, "outcome", outcome).Inc()
		s.reg.Histogram("serve_request_seconds", telemetry.TimeBuckets, "route", route, "outcome", outcome).
			Observe(time.Since(start).Seconds())
	}
}

func (s *Server) serveOne(w http.ResponseWriter, r *http.Request, gated bool, bodyLimit int64, fn func(ctx context.Context, w http.ResponseWriter, r *http.Request) error) string {
	if r.Method != http.MethodPost {
		s.fail(w, &httpError{code: http.StatusMethodNotAllowed, msg: "serve: POST only"})
		return "client-error"
	}
	budget := s.cfg.DefaultDeadline
	if h := r.Header.Get(DeadlineHeader); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil || d <= 0 {
			s.fail(w, badRequest("serve: bad %s %q (want a positive Go duration)", DeadlineHeader, h))
			return "client-error"
		}
		budget = d
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()

	if gated {
		if s.draining.Load() {
			s.shed(w, ShedDraining, http.StatusServiceUnavailable)
			return "shed"
		}
		if err := s.gate.Acquire(ctx); err != nil {
			var se *shedError
			if errors.As(err, &se) {
				s.shed(w, se.reason, http.StatusTooManyRequests)
			} else {
				s.fail(w, err)
			}
			return "shed"
		}
		defer s.gate.Release()
	}
	// A slow client that never finishes sending its body must not pin a
	// gate slot past its budget: bound the connection's reads by the
	// request deadline. (No-op on transports without deadlines, e.g.
	// httptest recorders.)
	if d, ok := ctx.Deadline(); ok {
		_ = http.NewResponseController(w).SetReadDeadline(d)
	}
	r.Body = http.MaxBytesReader(w, r.Body, bodyLimit)
	err := fn(ctx, w, r)
	if err == nil {
		return "ok"
	}
	s.fail(w, err)
	_, outcome := classify(err)
	return outcome
}

// faultPoint consults the injector at a site, burning any injected
// delay in real time under the request context.
func (s *Server) faultPoint(ctx context.Context, site string) error {
	delay, err := s.inj.Check(site)
	if delay > 0 {
		if serr := fault.SleepContext(ctx, delay); serr != nil {
			return serr
		}
	}
	if err != nil {
		return fmt.Errorf("serve: %s: %w", site, err)
	}
	return ctx.Err()
}

// advise resolves one request through the current bundle's pooled
// prediction sessions, honoring the context budget at every stage.
func (s *Server) advise(ctx context.Context, req *Request) (*Response, error) {
	b := s.bundle.Load()
	target, err := metrics.ParseTarget(req.Target)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	var v features.Vector
	var k *kernelir.Kernel
	switch {
	case req.KIR != "" && req.Features != nil:
		return nil, badRequest(`serve: "features" and "kir" are mutually exclusive`)
	case req.KIR != "":
		if len(req.KIR) > s.cfg.MaxKernelBytes {
			return nil, payloadTooLarge("serve: kir payload of %d bytes exceeds the %d-byte kernel limit",
				len(req.KIR), s.cfg.MaxKernelBytes)
		}
		if err := s.faultPoint(ctx, SiteExtract); err != nil {
			return nil, err
		}
		k, err = kernelir.Assemble(req.KIR)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		v, err = features.ExtractContext(ctx, k)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, badRequest("%v", err)
		}
	case req.Features != nil:
		v, err = features.FromMap(req.Features)
		if err != nil {
			return nil, badRequest("%v", err)
		}
	default:
		return nil, badRequest(`serve: request needs either "features" or "kir"`)
	}
	if req.GroundTruth {
		// Validate the cross-check inputs before spending prediction
		// work: these are client errors, not sweep failures.
		if k == nil {
			return nil, badRequest(`serve: "ground_truth" needs a "kir" kernel`)
		}
		if req.Items <= 0 {
			return nil, badRequest(`serve: "ground_truth" needs a positive "items" launch size`)
		}
		// A workload the device model refuses (a kernel that does no
		// work, say) would fail every sweep; it must not count against
		// the breaker that guards the sweep backend.
		w, err := features.KernelWorkload(k, req.Items)
		if err == nil {
			err = w.Validate()
		}
		if err != nil {
			return nil, badRequest(`serve: "ground_truth": %v`, err)
		}
	}

	if err := s.faultPoint(ctx, SitePredict); err != nil {
		return nil, err
	}
	p := b.pool.Get().(*model.Predictor)
	a, err := p.Advise(v, target)
	b.pool.Put(p)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.advises.Inc()
	// The model evaluations this advise made: its target's models over
	// the frequency table, plus time/energy at the chosen and baseline
	// clocks where the target did not need them over the table.
	s.predicts.Add(int64(a.Predictions))

	resp := &Response{
		Device:      b.m.Spec.Name,
		Algo:        b.m.Algo,
		Target:      target.String(),
		FreqMHz:     a.FreqMHz,
		BaselineMHz: a.BaselineMHz,
		TimeNs:      a.TimeNs,
		EnergyNanoJ: a.EnergyNanoJ,
		ESPct:       a.ESPct,
		PLPct:       a.PLPct,
		Bundle:      b.fp,
	}
	if req.GroundTruth {
		if err := s.crossCheck(ctx, b, k, req.Items, target, resp); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// crossCheck runs the ground-truth sweep behind the circuit breaker.
// Sweep trouble degrades the response (model-only advice with the
// Degraded field set) instead of failing the request; only an expired
// *request* budget fails it.
func (s *Server) crossCheck(ctx context.Context, b *activeBundle, k *kernelir.Kernel, items int64, target metrics.Target, resp *Response) error {
	if !s.breaker.Allow() {
		s.degrade(resp, "sweep-breaker-open")
		return nil
	}
	sctx, cancel := context.WithTimeout(ctx, s.cfg.SweepTimeout)
	defer cancel()
	err := func() error {
		delay, ferr := s.inj.Check(SiteSweep)
		if delay > 0 {
			if serr := fault.SleepContext(sctx, delay); serr != nil {
				return serr
			}
		}
		if ferr != nil {
			return ferr
		}
		gt, err := sweep.GroundTruthContext(sctx, b.m.Spec, k, items)
		if err != nil {
			return err
		}
		sel, err := gt.Select(target)
		if err != nil {
			return err
		}
		resp.ActualFreqMHz = sel.FreqMHz
		return nil
	}()
	if err == nil {
		s.breaker.RecordSuccess()
		return nil
	}
	if ctx.Err() != nil {
		// The request's own budget is spent: nobody is waiting for a
		// degraded answer either.
		return ctx.Err()
	}
	s.breaker.RecordFailure()
	if errors.Is(err, context.DeadlineExceeded) {
		s.degrade(resp, "sweep-timeout")
	} else {
		s.degrade(resp, "sweep-error")
	}
	return nil
}

// degrade marks the response as served in a degraded mode.
func (s *Server) degrade(resp *Response, reason string) {
	resp.Degraded = reason
	resp.ActualFreqMHz = 0
	s.reg.Counter("serve_degraded_total", "reason", reason).Inc()
}

func (s *Server) handleAdvise(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return decodeError("request", err)
	}
	resp, err := s.advise(ctx, &req)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var reqs []Request
	if err := json.NewDecoder(r.Body).Decode(&reqs); err != nil {
		return decodeError("batch", err)
	}
	if len(reqs) == 0 {
		return badRequest("serve: empty batch")
	}
	if len(reqs) > MaxBatch {
		return badRequest("serve: batch of %d exceeds limit %d", len(reqs), MaxBatch)
	}
	results := make([]BatchResult, len(reqs))
	for i := range reqs {
		// Per-item cancellation: once the batch budget is spent the
		// remaining items are annotated instead of computed.
		if err := ctx.Err(); err != nil {
			s.errors.Inc()
			results[i].Error = "serve: batch budget exhausted: " + err.Error()
			continue
		}
		resp, err := s.advise(ctx, &reqs[i])
		if err != nil {
			s.errors.Inc()
			results[i].Error = err.Error()
			continue
		}
		results[i].Response = resp
	}
	writeJSON(w, http.StatusOK, results)
	return nil
}

// decodeError maps body-decoding failures: an over-limit body is 413,
// an expired read deadline or budget stays a deadline failure (classify
// turns it into 408/504), anything else is a plain 400.
func decodeError(what string, err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return payloadTooLarge("serve: %s body exceeds the %d-byte limit", what, mbe.Limit)
	}
	if errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return err
	}
	return badRequest("serve: decoding %s: %v", what, err)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Pure liveness: the process is up and holds a servable bundle.
	// Readiness (degradation, draining) lives on /readyz.
	b := s.bundle.Load()
	writeJSON(w, http.StatusOK, map[string]string{
		"status": "ok",
		"device": b.m.Spec.Name,
		"algo":   b.m.Algo,
		"bundle": b.fp,
	})
}

// ReadyState is the /readyz body.
type ReadyState struct {
	Status  string   `json:"status"` // ready | degraded | draining
	Reasons []string `json:"reasons,omitempty"`
	Device  string   `json:"device"`
	Algo    string   `json:"algo"`
	Bundle  string   `json:"bundle"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	b := s.bundle.Load()
	st := ReadyState{Status: "ready", Device: b.m.Spec.Name, Algo: b.m.Algo, Bundle: b.fp}
	code := http.StatusOK
	if bs := s.breaker.Current(); bs != resilience.Closed {
		st.Status = "degraded"
		st.Reasons = append(st.Reasons, "sweep-breaker-"+bs.String())
	}
	if s.draining.Load() {
		// Draining dominates: load balancers must stop routing here.
		st.Status = "draining"
		st.Reasons = append(st.Reasons, "draining")
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if s.reg == nil {
		return
	}
	_ = s.reg.WriteText(w)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// shed writes the refusal envelope with the Retry-After hint and
// counts the shed per reason.
func (s *Server) shed(w http.ResponseWriter, reason string, code int) {
	s.reg.Counter("serve_shed_total", "reason", reason).Inc()
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, code, map[string]string{
		"error":  "serve: overloaded, request shed",
		"reason": reason,
	})
}

// classify maps an error to its HTTP status and outcome label.
func classify(err error) (code int, outcome string) {
	var he *httpError
	if errors.As(err, &he) {
		if he.code >= 400 && he.code < 500 {
			return he.code, "client-error"
		}
		return he.code, "error"
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge, "client-error"
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout, "deadline"
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		// The connection read deadline fired while the client dribbled
		// (or never sent) its body.
		return http.StatusRequestTimeout, "deadline"
	}
	return http.StatusInternalServerError, "error"
}

// fail writes the JSON error envelope and counts the failure.
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.errors.Inc()
	code, _ := classify(err)
	msg := err.Error()
	if code == http.StatusGatewayTimeout {
		msg = "serve: request deadline exceeded: " + msg
	}
	writeJSON(w, code, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
