// Command coscale-fleet coordinates a fleet of coscale-serve workers: it
// registers workers by heartbeat TTL lease, shards sweep cells across them
// by consistent hashing over the canonical request hash, retries failed or
// reclaimed leases with exponential backoff, and journals every job
// transition to a crash-safe append-only log so a coordinator restart
// resumes in-flight sweeps without recomputing finished cells. See
// DESIGN.md §12.
//
// Usage:
//
//	coscale-fleet -addr :8090 -journal fleet.journal
//	coscale-serve -addr :8081 -join http://localhost:8090
//	curl -s localhost:8090/v1/fleet/sweeps -d '{"workloads":["MEM1"]}'
//
// Endpoints: POST /v1/fleet/sweeps, GET /v1/fleet/sweeps,
// GET /v1/fleet/sweeps/{id} (?wait=1 blocks until terminal),
// POST /v1/fleet/workers/join, POST /v1/fleet/workers/{id}/heartbeat,
// GET /v1/fleet/workers, GET /healthz, GET /readyz, GET /metrics.
//
// With zero live workers the coordinator sheds new sweeps with
// 503/Retry-After; partial results of a running sweep are queryable at any
// time.
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
	"syscall"
	"time"

	"coscale/internal/buildinfo"
	"coscale/internal/fleet"
	"coscale/internal/server/pprofsrv"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("coscale-fleet: ")

	var (
		addr        = flag.String("addr", ":8090", "listen address")
		journal     = flag.String("journal", "", "crash-safe job journal path (empty = in-memory only)")
		heartbeat   = flag.Duration("heartbeat", time.Second, "worker heartbeat interval")
		jobTimeout  = flag.Duration("job-timeout", 60*time.Second, "per-attempt lease execution timeout")
		maxAttempts = flag.Int("max-attempts", 4, "lease attempts per job before terminal failure")
		inflight    = flag.Int("max-inflight", 4, "concurrent leases per worker")
		budget      = flag.Float64("budget", 0, "fleet power budget in watts, split across live workers (0 = uncapped)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
		version     = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version("coscale-fleet"))
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	logger := log.New(os.Stderr, "coscale-fleet: ", 0)
	if *pprofAddr != "" {
		go pprofsrv.Serve(*pprofAddr, logger)
	}
	if err := run(ln, logger, fleet.Config{
		HeartbeatInterval:    *heartbeat,
		JobTimeout:           *jobTimeout,
		MaxAttempts:          *maxAttempts,
		MaxInflightPerWorker: *inflight,
		PowerBudgetWatts:     *budget,
		JournalPath:          *journal,
		Logger:               logger,
	}); err != nil {
		log.Fatal(err)
	}
}

// run serves the coordinator on ln until SIGINT/SIGTERM. It owns closing ln.
func run(ln net.Listener, logger *log.Logger, cfg fleet.Config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: c.Handler()}

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (journal %q)", ln.Addr(), cfg.JournalPath)
		errc <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errc:
		_ = c.Close()
		return err
	case <-ctx.Done():
	}

	logger.Printf("signal received; shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		_ = c.Close()
		return err
	}
	if err := c.Close(); err != nil {
		return err
	}
	logger.Printf("bye")
	return nil
}
