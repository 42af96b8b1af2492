// Package pprofsrv serves net/http/pprof for the commands' opt-in -pprof
// flag. It is a package of its own, not part of internal/server, so that
// importing the serving helpers does not link the profiler into every
// binary: coscale-loadgen imports internal/server, and net/http/pprof
// would add about 0.7 MB to it.
package pprofsrv

import (
	"log"
	"net/http"
	"net/http/pprof"
)

// Serve exposes net/http/pprof on its own listener at addr. It is never
// mounted on a service mux, so the profiling endpoints can stay on loopback
// while the API listener is reachable from the fleet. Serving errors are
// logged, not fatal: losing profiling must not take the service down.
func Serve(addr string, logger *log.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Printf("pprof listening on %s", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Printf("pprof: %v", err)
	}
}
