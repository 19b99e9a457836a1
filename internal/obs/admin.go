package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Endpoint is an extra admin route mounted by AdminHandler — the way a
// binary (cmd/msqserver) adds process-specific views such as /debug/explain
// without this package importing the query layer.
type Endpoint struct {
	Pattern string
	Handler http.HandlerFunc
}

// AdminHandler serves the observability endpoints of one registry:
//
//	/metrics             Prometheus text exposition (phase histograms with
//	                     p50/p95/p99 summaries, gauges, counters)
//	/debug/traces        retained phase spans as JSONL, oldest first
//	/debug/slow          slow-query log as JSON, oldest first
//	/debug/pprof/*       the standard Go profiling endpoints
//
// plus any extra endpoints the caller mounts. The handler is read-only and
// safe to serve concurrently with query processing; it is intended for a
// loopback or otherwise trusted admin listener (cmd/msqserver's -admin
// flag), not for the query port.
func AdminHandler(r *Registry, extra ...Endpoint) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck // best effort on a live conn
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		r.Tracer().WriteTraces(w) //nolint:errcheck // best effort on a live conn
	})
	mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		records := r.Tracer().SlowQueries()
		if records == nil {
			records = []SlowQuery{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(records) //nolint:errcheck // best effort on a live conn
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, e := range extra {
		mux.HandleFunc(e.Pattern, e.Handler)
	}
	return mux
}
