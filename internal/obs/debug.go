package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugMux builds the handler tree for the opt-in debug server daemons hang
// behind -debug-addr:
//
//	/debug/pprof/*   runtime profiles (CPU, heap, goroutine, trace, ...)
//	/debug/vars      expvar JSON (cmdline, memstats)
//	/debug/obs       every registered series as a JSON array of Points
//	/metrics         Prometheus text exposition of the same registry
//
// The mux is independent of http.DefaultServeMux, so importing this package
// never leaks profiling handlers into a production listener; exposure is
// exactly the daemons' explicit opt-in flag.
func DebugMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	return mux
}

// ServeDebug binds addr and serves DebugMux(r) on it in the background,
// logging the bound address (and a serve failure, should one happen). The
// caller stops the returned server with Close or Shutdown.
func ServeDebug(addr string, r *Registry, log *slog.Logger) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: DebugMux(r)}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Error("debug server", "err", err)
		}
	}()
	log.Info("debug server listening", "addr", ln.Addr().String())
	return srv, nil
}
