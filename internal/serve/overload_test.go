package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synergy/internal/benchsuite"
	"synergy/internal/fault"
	"synergy/internal/resilience"
	"synergy/internal/telemetry"
)

// benchKIR returns a benchmark kernel in .kir wire form.
func benchKIR(t testing.TB, name string) string {
	t.Helper()
	b, err := benchsuite.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b.Kernel.Disassemble()
}

// boundedServer builds a daemon with a tiny gate so overload behavior
// is reachable without real load.
func boundedServer(t testing.TB, cfg Config) (*Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	s, err := NewWithConfig(testBundle(t), reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, reg
}

// occupySlots fills n gate slots directly and returns a release func.
func occupySlots(t *testing.T, s *Server, n int) func() {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.gate.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		for i := 0; i < n; i++ {
			s.gate.Release()
		}
	}
}

// TestExactShedCounts is the admission gate's arithmetic, white-box:
// with both in-flight slots occupied and both queue seats taken, every
// further request is shed with 429 queue-full — exactly as many sheds
// as over-limit requests, no more, no fewer.
func TestExactShedCounts(t *testing.T) {
	s, reg := boundedServer(t, Config{MaxInFlight: 2, MaxQueue: 2})
	fm := featureMap(t, "vec_add")
	release := occupySlots(t, s, 2)

	// Two requests queue behind the occupied gate.
	var wg sync.WaitGroup
	queuedCodes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, _ := postJSON(t, s, "/v1/advise", Request{Target: "MIN_ENERGY", Features: fm})
			queuedCodes[i] = w.Code
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want 2", s.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}

	// Gate full, queue full: the next three must shed, immediately.
	for i := 0; i < 3; i++ {
		w, out := postJSON(t, s, "/v1/advise", Request{Target: "MIN_ENERGY", Features: fm})
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("over-limit request %d: status %d, want 429 (%s)", i, w.Code, out)
		}
		if ra := w.Header().Get("Retry-After"); ra == "" {
			t.Errorf("over-limit request %d: Retry-After header missing", i)
		}
		var e map[string]string
		if err := json.Unmarshal(out, &e); err != nil || e["reason"] != ShedQueueFull {
			t.Errorf("over-limit request %d: envelope %s, want reason %q", i, out, ShedQueueFull)
		}
	}
	if got := reg.Snapshot().CounterValue("serve_shed_total", "reason", ShedQueueFull); got != 3 {
		t.Errorf("serve_shed_total{queue-full} = %d, want 3", got)
	}

	// Releasing the slots lets exactly the two queued requests finish.
	release()
	wg.Wait()
	for i, code := range queuedCodes {
		if code != http.StatusOK {
			t.Errorf("queued request %d: status %d, want 200", i, code)
		}
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue("serve_requests_total", "route", "advise", "outcome", "ok"); got != 2 {
		t.Errorf("ok outcomes = %d, want 2", got)
	}
	if got := snap.CounterValue("serve_requests_total", "route", "advise", "outcome", "shed"); got != 3 {
		t.Errorf("shed outcomes = %d, want 3", got)
	}
	if s.InFlightPeak() > 2 {
		t.Errorf("in-flight peak %d exceeded the gate of 2", s.InFlightPeak())
	}
}

// TestDeadlineShedding covers both deadline sheds: a budget already
// spent on arrival, and a budget that expires while queued.
func TestDeadlineShedding(t *testing.T) {
	s, reg := boundedServer(t, Config{MaxInFlight: 1, MaxQueue: 4})
	fm := featureMap(t, "vec_add")

	post := func(deadline string) (*httptest.ResponseRecorder, []byte) {
		buf, err := json.Marshal(Request{Target: "MIN_ENERGY", Features: fm})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(buf))
		req.Header.Set(DeadlineHeader, deadline)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		out, _ := io.ReadAll(w.Result().Body)
		return w, out
	}

	// Already expired on arrival: shed before touching the queue.
	w, out := post("1ns")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("pre-expired deadline: status %d, want 429 (%s)", w.Code, out)
	}

	// Expires while queued behind an occupied gate.
	release := occupySlots(t, s, 1)
	start := time.Now()
	w, out = post("50ms")
	waited := time.Since(start)
	release()
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("queued expiry: status %d, want 429 (%s)", w.Code, out)
	}
	if waited > 3*time.Second {
		t.Errorf("queued expiry took %v, want ~50ms", waited)
	}
	var e map[string]string
	if err := json.Unmarshal(out, &e); err != nil || e["reason"] != ShedDeadline {
		t.Errorf("queued expiry envelope %s, want reason %q", out, ShedDeadline)
	}
	if got := reg.Snapshot().CounterValue("serve_shed_total", "reason", ShedDeadline); got != 2 {
		t.Errorf("serve_shed_total{deadline} = %d, want 2", got)
	}

	// A malformed deadline is the client's fault, not a shed.
	w, out = post("soonish")
	if w.Code != http.StatusBadRequest {
		t.Errorf("bad deadline header: status %d, want 400 (%s)", w.Code, out)
	}
}

// TestDrainingSheds: a draining server refuses gated work with 503 and
// reports draining on /readyz, while liveness stays green.
func TestDrainingSheds(t *testing.T) {
	s, reg := boundedServer(t, Config{})
	fm := featureMap(t, "vec_add")
	s.StartDraining()

	w, out := postJSON(t, s, "/v1/advise", Request{Target: "MIN_ENERGY", Features: fm})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining advise: status %d, want 503 (%s)", w.Code, out)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("draining shed: Retry-After header missing")
	}
	if got := reg.Snapshot().CounterValue("serve_shed_total", "reason", ShedDraining); got != 1 {
		t.Errorf("serve_shed_total{draining} = %d, want 1", got)
	}

	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rw := httptest.NewRecorder()
	s.ServeHTTP(rw, req)
	if rw.Code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz: status %d, want 503", rw.Code)
	}
	var st ReadyState
	if err := json.NewDecoder(rw.Result().Body).Decode(&st); err != nil || st.Status != "draining" {
		t.Errorf("draining readyz body: %+v (err %v)", st, err)
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rw = httptest.NewRecorder()
	s.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Errorf("draining healthz: status %d, want 200 (liveness is not readiness)", rw.Code)
	}
}

// TestReadyzReady: the happy-path readiness report.
func TestReadyzReady(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("readyz: status %d", w.Code)
	}
	var st ReadyState
	if err := json.NewDecoder(w.Result().Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "ready" || st.Bundle != s.BundleFingerprint() {
		t.Errorf("readyz body: %+v", st)
	}
}

// TestBodyBounds: bodies over MaxBodyBytes and kernels over
// MaxKernelBytes get 413, and the limits do not bite normal requests.
func TestBodyBounds(t *testing.T) {
	s, _ := boundedServer(t, Config{})

	big := strings.Repeat("x", MaxBodyBytes)
	req := httptest.NewRequest(http.MethodPost, "/v1/advise", strings.NewReader(`{"target":"`+big+`"}`))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", w.Code)
	}

	line := "  addf r0, r0, r0\n"
	kir := "kernel k {\n" + strings.Repeat(line, MaxKernelBytes/len(line)+1) + "}\n"
	if len(kir) <= MaxKernelBytes {
		t.Fatalf("test kernel too small: %d bytes", len(kir))
	}
	w2, out := postJSON(t, s, "/v1/advise", Request{Target: "MIN_ENERGY", KIR: kir})
	if w2.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized kir: status %d, want 413 (%s)", w2.Code, out)
	}

	fm := featureMap(t, "vec_add")
	if w3, out := postJSON(t, s, "/v1/advise", Request{Target: "MIN_ENERGY", Features: fm}); w3.Code != http.StatusOK {
		t.Errorf("normal request under bounds: status %d (%s)", w3.Code, out)
	}
}

// TestSlowClientDoesNotWedgeGate: a client that sends headers and then
// never delivers its body must be cut off at its deadline, releasing
// its gate slot. Without the read-deadline bound this pins a slot
// forever and the daemon wedges one slow client at a time.
func TestSlowClientDoesNotWedgeGate(t *testing.T) {
	s, reg := boundedServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Headers promise a body that never comes.
	fmt.Fprintf(conn, "POST /v1/advise HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"+
		"Content-Length: 512\r\n%s: 300ms\r\n\r\n", DeadlineHeader)

	// The stalled request occupies the single slot...
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("stalled request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	// ...and must vacate it at its deadline, not at connection close.
	for s.InFlight() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled request still holds its gate slot well past its 300ms deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The daemon is fully serviceable afterwards.
	fm := featureMap(t, "vec_add")
	body, _ := json.Marshal(Request{Target: "MIN_ENERGY", Features: fm})
	resp, err := http.Post(ts.URL+"/v1/advise", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-stall advise: status %d", resp.StatusCode)
	}
	if got := reg.Snapshot().CounterValue("serve_requests_total", "route", "advise", "outcome", "deadline"); got != 1 {
		t.Errorf("deadline outcomes = %d, want 1 (the stalled request)", got)
	}
}

// TestDegradedSweepBreaker: repeated sweep stalls trip the breaker and
// the daemon falls back to model-only advice instead of failing, with
// the degradation visible in the response, /readyz and the counters.
func TestDegradedSweepBreaker(t *testing.T) {
	// Every sweep stalls well past the sweep budget.
	inj := fault.New(1, fault.Rule{Site: SiteSweep, DelaySec: 0.2})
	s, reg := boundedServer(t, Config{
		SweepTimeout: 20 * time.Millisecond,
		Breaker:      resilience.Config{FailureThreshold: 2, CooldownSec: 3600, HalfOpenSuccesses: 1},
		Fault:        inj,
	})
	kir := benchKIR(t, "vec_add")

	post := func() (*httptest.ResponseRecorder, Response) {
		w, out := postJSON(t, s, "/v1/advise", Request{
			Target: "MIN_EDP", KIR: kir, Items: 1 << 20, GroundTruth: true,
		})
		var resp Response
		if w.Code == http.StatusOK {
			if err := json.Unmarshal(out, &resp); err != nil {
				t.Fatal(err)
			}
		}
		return w, resp
	}

	// Two sweep timeouts: degraded responses, breaker trips open.
	for i := 0; i < 2; i++ {
		w, resp := post()
		if w.Code != http.StatusOK {
			t.Fatalf("degraded advise %d: status %d", i, w.Code)
		}
		if resp.Degraded != "sweep-timeout" || resp.ActualFreqMHz != 0 || resp.FreqMHz == 0 {
			t.Fatalf("degraded advise %d: %+v", i, resp)
		}
	}
	// Breaker now open (cooldown 1h): the sweep is skipped outright.
	w, resp := post()
	if w.Code != http.StatusOK || resp.Degraded != "sweep-breaker-open" {
		t.Fatalf("breaker-open advise: status %d, degraded %q", w.Code, resp.Degraded)
	}

	snap := reg.Snapshot()
	if got := snap.CounterValue("serve_degraded_total", "reason", "sweep-timeout"); got != 2 {
		t.Errorf("serve_degraded_total{sweep-timeout} = %d, want 2", got)
	}
	if got := snap.CounterValue("serve_degraded_total", "reason", "sweep-breaker-open"); got < 1 {
		t.Errorf("serve_degraded_total{sweep-breaker-open} = %d, want >= 1", got)
	}

	// /readyz reports the degradation.
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rw := httptest.NewRecorder()
	s.ServeHTTP(rw, req)
	var st ReadyState
	if err := json.NewDecoder(rw.Result().Body).Decode(&st); err != nil || st.Status != "degraded" {
		t.Errorf("degraded readyz: %+v (err %v)", st, err)
	}
}

// TestShedProfileAtSaturation drives the daemon at ~2x its gate with a
// slowed-down predict path and checks the overload contract end to
// end: admitted requests finish with bounded latency, the excess is
// shed as 429 (never queued to death), and every request gets exactly
// one terminal outcome. It logs the measured figures (-v).
func TestShedProfileAtSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation profile skipped in -short")
	}
	// ~3ms of injected service time per request makes a 4-slot gate
	// saturate under 16 concurrent clients.
	inj := fault.New(7, fault.Rule{Site: SitePredict, DelaySec: 0.003})
	const gate, queue = 4, 4
	s, reg := boundedServer(t, Config{MaxInFlight: gate, MaxQueue: queue, Fault: inj})
	ts := httptest.NewServer(s)
	defer ts.Close()

	fm := featureMap(t, "black_scholes")
	body, err := json.Marshal(Request{Target: "MIN_ENERGY", Features: fm})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 2 * (gate + queue) // 2x saturation
	const perClient = 30
	var ok, shed, other atomic.Int64
	lat := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &http.Client{}
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/advise", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set(DeadlineHeader, "2s")
				resp, err := cl.Do(req)
				if err != nil {
					other.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
					lat[c] = append(lat[c], time.Since(t0))
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					other.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	total := int64(clients * perClient)
	if ok.Load()+shed.Load()+other.Load() != total {
		t.Fatalf("outcomes %d+%d+%d != %d requests", ok.Load(), shed.Load(), other.Load(), total)
	}
	if other.Load() != 0 {
		t.Errorf("%d requests ended in neither answer nor shed", other.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no requests admitted at 2x saturation")
	}
	if s.InFlightPeak() > gate {
		t.Errorf("in-flight peak %d exceeded the gate of %d", s.InFlightPeak(), gate)
	}
	snap := reg.Snapshot()
	acct := snap.CounterValue("serve_requests_total", "route", "advise", "outcome", "ok") +
		snap.CounterValue("serve_requests_total", "route", "advise", "outcome", "shed") +
		snap.CounterValue("serve_requests_total", "route", "advise", "outcome", "deadline") +
		snap.CounterValue("serve_requests_total", "route", "advise", "outcome", "error")
	if acct != total {
		t.Errorf("serve_requests_total accounts for %d of %d requests", acct, total)
	}

	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(p float64) time.Duration { return all[int(p*float64(len(all)-1))] }
	// An admitted request waits at most the queue ahead of it:
	// generously, (queue+1) service times behind a full gate, plus
	// transport. 2s of p99 at ~3ms service would mean unbounded queuing.
	if p99 := q(0.99); p99 > time.Second {
		t.Errorf("admitted p99 %v at 2x saturation; admission control failed to bound latency", p99)
	}
	t.Logf("2x saturation (%d clients, gate %d+%d): %d ok, %d shed; admitted p50 %v p99 %v",
		clients, gate, queue, ok.Load(), shed.Load(), q(0.50), q(0.99))
}
