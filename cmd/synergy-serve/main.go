// Command synergy-serve runs the frequency-advice daemon: an HTTP/JSON
// service that answers "at which core frequency should this kernel run
// for this energy target?" from one trained per-device model bundle.
//
// The bundle either comes from a synergy-train artifact (-bundle) or is
// trained at startup on the micro-benchmark suite. Endpoints:
//
//	POST /v1/advise      one advice request (features map or raw .kir)
//	POST /v1/batch       an array of advice requests
//	POST /v1/reload      validate + atomically swap the model bundle
//	GET  /healthz        liveness + bundle identity
//	GET  /readyz         readiness: ready | degraded | draining
//	GET  /metrics        Prometheus-style text exposition
//	GET  /metrics.json   canonical telemetry snapshot (synergy-top -serve)
//
// The daemon is overload-proof: concurrency is bounded by an admission
// gate (-max-inflight, -max-queue), every request runs under a deadline
// (X-Request-Deadline header, -default-deadline otherwise), excess load
// is shed with 429 + Retry-After, and a tripped ground-truth sweep
// degrades to model-only advice instead of failing. SIGHUP revalidates
// and hot-reloads the -bundle file without dropping a request; SIGINT/
// SIGTERM flip /readyz to draining, then drain within -drain-grace.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"synergy/internal/hw"
	"synergy/internal/model"
	"synergy/internal/serve"
	"synergy/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("synergy-serve: ")
	addr := flag.String("addr", "127.0.0.1:8091", "listen address")
	bundle := flag.String("bundle", "", "trained model bundle (from synergy-train -save); trains at startup when empty")
	device := flag.String("device", "v100", "device to train for when no bundle is given ("+strings.Join(hw.BuiltinNames(), ", ")+")")
	algo := flag.String("algo", model.AlgoForest, "training algorithm when no bundle is given")
	stride := flag.Int("stride", 4, "training-sweep frequency stride when no bundle is given")
	maxInFlight := flag.Int("max-inflight", 64, "max concurrently executing requests (admission gate)")
	maxQueue := flag.Int("max-queue", 256, "max requests waiting for a gate slot before shedding")
	defaultDeadline := flag.Duration("default-deadline", 30*time.Second, "request budget when the client sends no X-Request-Deadline")
	sweepTimeout := flag.Duration("sweep-timeout", 10*time.Second, "ground-truth sweep sub-budget before the response degrades")
	drainGrace := flag.Duration("drain-grace", 10*time.Second, "shutdown drain budget for in-flight requests")
	flag.Parse()

	m, err := loadOrTrain(*bundle, *device, *algo, *stride)
	if err != nil {
		log.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	srv, err := serve.NewWithConfig(m, reg, serve.Config{
		MaxInFlight:     *maxInFlight,
		MaxQueue:        *maxQueue,
		DefaultDeadline: *defaultDeadline,
		SweepTimeout:    *sweepTimeout,
	})
	if err != nil {
		log.Fatal(err)
	}

	hs := &http.Server{
		Addr:    *addr,
		Handler: srv,
		// Slow-loris headers are cut off early; per-request body reads
		// are bounded by the request deadline inside the daemon.
		ReadHeaderTimeout: 10 * time.Second,
	}
	done := make(chan error, 1)
	go func() {
		log.Printf("serving %s/%s advice on http://%s (bundle %s, gate %d+%d)",
			m.Spec.Name, m.Algo, *addr, srv.BundleFingerprint(), *maxInFlight, *maxQueue)
		done <- hs.ListenAndServe()
	}()

	// SIGHUP hot-reloads the bundle file; SIGINT/SIGTERM drain and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if *bundle == "" {
				log.Printf("SIGHUP: no -bundle file to reload from")
				continue
			}
			if err := srv.ReloadFromPath(*bundle); err != nil {
				log.Printf("SIGHUP: reload rejected, keeping bundle %s: %v", srv.BundleFingerprint(), err)
				continue
			}
			log.Printf("SIGHUP: reloaded bundle %s from %s", srv.BundleFingerprint(), *bundle)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("%v: draining (grace %v)", s, *drainGrace)
	}
	// Readiness flips first so load balancers stop routing here, then
	// the listener drains in-flight requests within the grace budget.
	srv.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Fatalf("drain incomplete after %v: %v", *drainGrace, err)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Printf("drained cleanly")
}

// loadOrTrain resolves the model bundle: load the synergy-train
// artifact when given, otherwise run the §6.1 installation step here.
func loadOrTrain(bundle, device, algo string, stride int) (*model.Models, error) {
	if bundle != "" {
		return model.LoadFile(bundle)
	}
	spec, err := hw.SpecByName(device)
	if err != nil {
		return nil, err
	}
	log.Printf("no bundle given: training %s on %s (stride %d)", algo, spec.Name, stride)
	return model.TrainDefault(spec, algo, stride)
}
