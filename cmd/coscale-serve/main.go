// Command coscale-serve exposes the simulation stack as a long-running
// HTTP/JSON service: a bounded worker pool executes simulate and sweep jobs
// from an admission-controlled queue, results are cached by canonical
// request hash, and per-epoch progress streams as NDJSON. Results are
// bit-identical to the CLIs. See DESIGN.md §9.
//
// Usage:
//
//	coscale-serve -addr :8080
//	curl -s localhost:8080/v1/simulate?wait=1 -d '{"workload":"MEM1"}'
//
// Endpoints: POST /v1/simulate, POST /v1/sweep, GET /v1/jobs/{id},
// GET /v1/jobs/{id}/stream (NDJSON), DELETE /v1/jobs/{id},
// POST /v1/lease/execute (fleet), GET /healthz, GET /readyz, GET /metrics.
//
// With -join, the process also enrolls as a worker in a coscale-fleet
// coordinator: it registers, heartbeats its readiness, and executes sweep
// cells leased to it via POST /v1/lease/execute. See DESIGN.md §12.
//
// SIGINT/SIGTERM drain gracefully: new submissions are refused with 503,
// in-flight jobs get -drain-timeout to finish, then stragglers are
// cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"coscale/internal/buildinfo"
	"coscale/internal/fleet"
	"coscale/internal/server"
	"coscale/internal/server/pprofsrv"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("coscale-serve: ")

	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "concurrent simulation jobs (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue", 0, "admitted-but-not-started job bound (0 = 64)")
		cacheSize    = flag.Int("cache", 0, "result cache entries (0 = 256)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
		join         = flag.String("join", "", "coordinator base URL to enroll with (e.g. http://fleet:8090)")
		joinID       = flag.String("join-id", "", "stable worker identity for the fleet (default host:port)")
		advertise    = flag.String("advertise", "", "base URL the coordinator should dial this worker at (default derived from -addr)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
		version      = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version("coscale-serve"))
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	logger := log.New(os.Stderr, "coscale-serve: ", 0)
	if *pprofAddr != "" {
		go pprofsrv.Serve(*pprofAddr, logger)
	}
	fj := fleetJoin{coordinator: *join, id: *joinID, advertise: *advertise}
	if fj.coordinator != "" {
		if fj.id == "" {
			fj.id = workerID(ln.Addr())
		}
		if fj.advertise == "" {
			fj.advertise = advertiseURL(ln.Addr())
		}
	}
	if err := run(ln, logger, *workers, *queueDepth, *cacheSize, *drainTimeout, fj); err != nil {
		log.Fatal(err)
	}
}

// fleetJoin carries the resolved -join options.
type fleetJoin struct {
	coordinator string // coordinator base URL ("" = standalone)
	id          string // stable worker identity
	advertise   string // dialable base URL for this worker
}

// workerID derives a stable fleet identity from the listen address: the
// hostname plus the bound port, so restarts keep their place on the ring.
func workerID(a net.Addr) string {
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	_, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return host
	}
	return host + ":" + port
}

// advertiseURL turns the listen address into a dialable base URL, mapping
// wildcard binds to loopback (single-host default; -advertise overrides).
func advertiseURL(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return "http://" + a.String()
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	if strings.Contains(host, ":") {
		host = "[" + host + "]"
	}
	return "http://" + host + ":" + port
}

// run serves on ln until SIGINT/SIGTERM, then drains. It owns closing ln.
func run(ln net.Listener, logger *log.Logger, workers, queueDepth, cacheSize int, drainTimeout time.Duration, fj fleetJoin) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s := server.New(server.Config{
		Workers:    workers,
		QueueDepth: queueDepth,
		CacheSize:  cacheSize,
		Logger:     logger,
		WorkerID:   fj.id,
	})
	httpSrv := &http.Server{Handler: s.Handler()}

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", ln.Addr())
		errc <- httpSrv.Serve(ln)
	}()

	if fj.coordinator != "" {
		agent := &fleet.Agent{
			ID:          fj.id,
			Addr:        fj.advertise,
			Coordinator: fj.coordinator,
			Ready:       s.Ready,
			OnBudget:    s.SetPowerCap,
			Logger:      logger,
		}
		go func() {
			if err := agent.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				logger.Printf("fleet agent: %v", err)
			}
		}()
	}

	select {
	case err := <-errc:
		return err // listener failure; nothing to drain
	case <-ctx.Done():
	}

	logger.Printf("signal received; draining (timeout %s)", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Drain first so jobs finish (or are cancelled at the deadline), then
	// close the listener and let straggling responses flush.
	drainErr := s.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if drainErr != nil {
		logger.Printf("drain deadline hit; in-flight jobs were cancelled")
	}
	logger.Printf("bye")
	return nil
}
