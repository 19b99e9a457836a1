// Command msqserver serves similarity queries over TCP, providing the
// multiple similarity query as a basic DBMS operation (the paper's closing
// recommendation). The protocol is line-delimited JSON; each connection
// owns one incremental multi-query session.
//
// Usage:
//
//	msqserver -addr :7707 [-data dataset-dir] [-mmap]
//	          [-n 20000] [-dim 16]
//	          [-engine scan|xtree|vafile|pivot|pmtree]
//	          [-max-conns 0] [-max-request-bytes 1048576]
//	          [-read-timeout 0] [-write-timeout 10s] [-drain 5s]
//	          [-admin 127.0.0.1:7708] [-slow-query 100ms]
//	          [-admit] [-admit-queue 256] [-admit-max-width 16]
//	          [-admit-max-wait 2ms] [-admit-slo 1s]
//
// Request/response format (one JSON object per line):
//
//	{"op":"query","queries":[{"vector":[...],"kind":"knn","k":10}]}
//	{"op":"multi","queries":[{"id":1,"vector":[...],"kind":"range","range":0.5}, ...]}
//	{"op":"multi_all","queries":[...]}
//	{"op":"stats"}
//	{"op":"ping"}
//
// Error responses carry a code ("bad_request", "engine_error", "overload",
// "shutting_down"); malformed requests get a final error response instead
// of a dropped connection. SIGINT/SIGTERM drain gracefully: the listener
// closes, in-flight requests finish within the -drain grace period, then
// remaining connections are force-closed.
//
// -admit enables admission control with cross-caller batch forming:
// concurrently arriving "query" requests are grouped into multi-query
// blocks (up to -admit-max-width wide, lingering at most -admit-max-wait),
// requests that cannot meet their deadline budget (request deadline_ms, or
// -admit-slo when absent) are shed early with a structured overload error
// and a retry-after hint, and at most -admit-queue requests wait at once.
//
// When -data names a dataset directory written by msqgen (the persistent
// page-store format), the server serves data pages from the file system —
// pread by default, memory-mapped with -mmap — verifying page checksums on
// every read, and /metrics additionally exports metricdb_storage_* real-I/O
// counters. A generated dataset serves from memory.
//
// -admin binds a second, HTTP, listener with the observability surface:
// GET /metrics (Prometheus text: per-phase latency histograms, buffer and
// disk gauges, wire counters), GET /debug/traces (recent phase spans as
// JSONL), GET /debug/slow (the slow-query log, threshold -slow-query),
// POST /debug/explain (a batch's EXPLAIN profile) and /debug/pprof/*. The
// process has one tracer, installed on the processor, which records every
// phase: the page path, the wire codec and the admission wait. When -admin
// is empty no tracer is installed and the query path runs with
// observability hooks disabled (the near-zero overhead configuration).
package main

import (
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

	"metricdb"
	"metricdb/internal/admit"
	"metricdb/internal/dataset"
	"metricdb/internal/obs"
	"metricdb/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7707", "listen address")
		dataFile = flag.String("data", "", "dataset directory written by msqgen (default: generate)")
		mmap     = flag.Bool("mmap", false, "memory-map the page file of a -data dataset directory")
		n        = flag.Int("n", 20000, "generated dataset size")
		dim      = flag.Int("dim", 16, "generated dataset dimensionality")
		engine   = flag.String("engine", "xtree", "physical organization: scan, xtree, vafile, pivot or pmtree")

		maxConns  = flag.Int("max-conns", 0, "concurrent connection limit (0 = unlimited)")
		maxReqLen = flag.Int("max-request-bytes", wire.DefaultMaxRequestBytes, "request line size cap")
		readTO    = flag.Duration("read-timeout", 0, "idle read deadline per connection (0 = none)")
		writeTO   = flag.Duration("write-timeout", 10*time.Second, "per-response write deadline (0 = none)")
		drain     = flag.Duration("drain", 5*time.Second, "graceful-shutdown grace period")

		adminAddr = flag.String("admin", "", "admin HTTP listen address for /metrics, /debug/traces, /debug/explain and /debug/pprof (empty = observability disabled)")
		slowQuery = flag.Duration("slow-query", obs.DefaultSlowQueryThreshold, "slow-query log threshold (needs -admin; negative disables the log)")

		admitOn       = flag.Bool("admit", false, "enable admission control and cross-caller batch forming for single-query requests")
		admitQueue    = flag.Int("admit-queue", admit.DefaultMaxQueue, "admission queue bound (requests beyond it are shed with overload)")
		admitMaxWidth = flag.Int("admit-max-width", admit.DefaultMaxWidth, "maximum formed batch width m")
		admitMaxWait  = flag.Duration("admit-max-wait", admit.DefaultMaxWait, "maximum linger waiting for arrivals to widen a batch")
		admitSLO      = flag.Duration("admit-slo", admit.DefaultDefaultSLO, "deadline budget for requests that carry no deadline_ms")
	)
	flag.Parse()
	cfg := wire.ServerConfig{
		ReadTimeout:     *readTO,
		WriteTimeout:    *writeTO,
		MaxRequestBytes: *maxReqLen,
		MaxConns:        *maxConns,
		Logf:            log.Printf,
	}
	if *admitOn {
		cfg.Admit = &admit.Config{
			MaxQueue:   *admitQueue,
			MaxWidth:   *admitMaxWidth,
			MaxWait:    *admitMaxWait,
			DefaultSLO: *admitSLO,
		}
	}
	if err := run(*addr, *dataFile, *mmap, *n, *dim, *engine, cfg, *drain, *adminAddr, *slowQuery); err != nil {
		fmt.Fprintln(os.Stderr, "msqserver:", err)
		os.Exit(1)
	}
}

func run(addr, dataFile string, mmap bool, n, dim int, engine string, cfg wire.ServerConfig, drain time.Duration, adminAddr string, slowQuery time.Duration) error {
	src := dataSource{mmap: mmap}
	if dataFile != "" {
		src.dir = dataFile
	} else {
		items, err := dataset.Clustered(dataset.ClusteredConfig{Seed: 1, N: n, Dim: dim, Clusters: 8})
		if err != nil {
			return err
		}
		src.items = items
	}

	db, srv, lis, adminLis, err := serve(addr, src, engine, cfg, adminAddr, slowQuery)
	if err != nil {
		return err
	}
	defer db.Close() //nolint:errcheck
	// The avoidance mode is printed resolved: an operator who later sees
	// "avoided 0" on every batch can see here that no lemma is being probed.
	// The row kernel is printed because the two cost about 3x apart per pair.
	ps := db.ProcessorStats()
	if mode, ok := db.Stored(); ok {
		fmt.Printf("serving %d items (%s engine, avoidance %s, row kernel %s, %s storage from %s) on %s\n",
			db.Len(), engine, ps.Avoidance, ps.RowKernel, mode, dataFile, lis.Addr())
	} else {
		fmt.Printf("serving %d items (%s engine, avoidance %s, row kernel %s) on %s\n",
			db.Len(), engine, ps.Avoidance, ps.RowKernel, lis.Addr())
	}
	if adminLis != nil {
		fmt.Printf("admin HTTP (metrics, traces, pprof) on %s\n", adminLis.lis.Addr())
		go func() {
			if err := adminLis.srv.Serve(adminLis.lis); err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
				log.Printf("msqserver: admin listener: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	draining := make(chan struct{})
	drained := make(chan error, 1)
	go func() {
		s := <-sig
		log.Printf("msqserver: received %v, draining (grace %v)", s, drain)
		close(draining)
		drained <- srv.Shutdown(drain)
	}()

	err = srv.Serve(lis)
	select {
	case <-draining:
		// Shutdown closed the listener, which is what made Serve return;
		// wait for the drain to finish and report its outcome instead of
		// Serve's expected net.ErrClosed.
		derr := <-drained
		if errors.Is(err, net.ErrClosed) {
			err = derr
		}
		log.Printf("msqserver: drained")
	default:
		srv.Close() //nolint:errcheck
	}
	if adminLis != nil {
		adminLis.srv.Close() //nolint:errcheck
	}
	signal.Stop(sig)
	return err
}

// adminListener pairs the admin HTTP server with its bound listener.
type adminListener struct {
	srv *http.Server
	lis net.Listener
}

// dataSource selects where the served database lives: in-memory items, or
// a persistent dataset directory read through a file-backed page store.
type dataSource struct {
	items []metricdb.Item
	dir   string
	mmap  bool
}

// serve builds the database and binds the listeners (separated for tests).
// When adminAddr is non-empty the processor runs with a tracer installed —
// the one tracer of the page path, the wire codec and admission — and the
// returned adminListener serves the observability endpoints. The caller
// owns the returned DB and must Close it after shutdown.
func serve(addr string, src dataSource, engine string, cfg wire.ServerConfig, adminAddr string, slowQuery time.Duration) (*metricdb.DB, *wire.Server, net.Listener, *adminListener, error) {
	opts := metricdb.Options{Engine: metricdb.EngineKind(engine), Mmap: src.mmap}
	if err := opts.Validate(); err != nil {
		return nil, nil, nil, nil, err
	}
	var (
		db  *metricdb.DB
		err error
	)
	if src.dir != "" {
		db, err = metricdb.OpenStored(src.dir, opts)
	} else {
		db, err = metricdb.Open(src.items, opts)
	}
	if err != nil {
		return nil, nil, nil, nil, err
	}

	proc := db.Processor()
	var tracer *obs.Tracer
	if adminAddr != "" {
		tracer = obs.New(obs.Config{SlowQueryThreshold: slowQuery})
		proc = proc.WithTracer(tracer) // also installs the pager's page_fetch hook
	}
	srv, err := wire.NewServerWithConfig(proc, cfg)
	if err != nil {
		db.Close() //nolint:errcheck
		return nil, nil, nil, nil, err
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		db.Close() //nolint:errcheck
		return nil, nil, nil, nil, err
	}

	var admin *adminListener
	if adminAddr != "" {
		alis, err := net.Listen("tcp", adminAddr)
		if err != nil {
			lis.Close() //nolint:errcheck
			db.Close()  //nolint:errcheck
			return nil, nil, nil, nil, err
		}
		reg := newRegistry(tracer, db, srv, engine)
		admin = &adminListener{
			srv: &http.Server{
				Handler: obs.AdminHandler(reg,
					obs.Endpoint{Pattern: "/debug/explain", Handler: srv.ExplainHandler()},
				),
				ReadHeaderTimeout: 5 * time.Second,
			},
			lis: alis,
		}
	}
	return db, srv, lis, admin, nil
}

// newRegistry registers gauges and counters over the live database, buffer
// pool, disk and wire-server counters; values are sampled at scrape time.
func newRegistry(tracer *obs.Tracer, db *metricdb.DB, srv *wire.Server, engine string) *obs.Registry {
	reg := obs.NewRegistry(tracer)
	engLabel := fmt.Sprintf("engine=%q", engine)

	reg.Gauge("metricdb_db_items", engLabel, "Objects in the database.",
		func() float64 { return float64(db.Len()) })
	reg.Gauge("metricdb_db_pages", engLabel, "Data pages in the physical organization.",
		func() float64 { return float64(db.NumPages()) })

	reg.Counter("metricdb_disk_reads_total", `kind="seq"`, "Page reads that reached the disk.",
		func() float64 { return float64(db.IOStats().SeqReads) })
	reg.Counter("metricdb_disk_reads_total", `kind="rand"`, "Page reads that reached the disk.",
		func() float64 { return float64(db.IOStats().RandReads) })

	if mode, ok := db.Stored(); ok {
		reg.Gauge("metricdb_storage_mode", fmt.Sprintf("mode=%q", mode),
			"Always 1; the label carries the file-backed storage mode (pread or mmap).",
			func() float64 { return 1 })
		reg.Counter("metricdb_storage_preads_total", "", "Real page reads issued to the file system.",
			func() float64 { st, _ := db.StorageStats(); return float64(st.Preads) })
		reg.Counter("metricdb_storage_bytes_read_total", "", "Bytes fetched from the page file.",
			func() float64 { st, _ := db.StorageStats(); return float64(st.BytesRead) })
		reg.Counter("metricdb_storage_checksum_failures_total", "", "Page reads rejected by checksum or structural verification.",
			func() float64 { st, _ := db.StorageStats(); return float64(st.ChecksumFailures) })
		reg.Counter("metricdb_store_pages_reused_total", "", "Page reads decoded into a recycled page; far below the preads, a reader is not releasing its pages.",
			func() float64 { st, _ := db.StorageStats(); return float64(st.PagesReused) })
	}

	buf := db.Processor().Engine().Pager().Buffer()
	reg.Counter("metricdb_buffer_hits_total", "", "Buffer-pool lookups served without disk I/O.",
		func() float64 { hits, _, _ := buf.HitRate(); return float64(hits) })
	reg.Counter("metricdb_buffer_misses_total", "", "Buffer-pool lookups that missed.",
		func() float64 { _, misses, _ := buf.HitRate(); return float64(misses) })
	reg.Counter("metricdb_buffer_evictions_total", "", "Pages evicted from the buffer pool (LRU).",
		func() float64 { return float64(buf.Evictions()) })
	reg.Gauge("metricdb_buffer_pages", "", "Pages currently resident in the buffer pool.",
		func() float64 { return float64(buf.Len()) })
	reg.Gauge("metricdb_buffer_capacity_pages", "", "Buffer-pool capacity in pages.",
		func() float64 { return float64(buf.Capacity()) })

	reg.Gauge("metricdb_row_kernel", fmt.Sprintf("isa=%q", db.ProcessorStats().RowKernel),
		"Always 1; the label carries the instruction set of the blocked page pass (avx512, avx2 or go).",
		func() float64 { return 1 })
	reg.Counter("metricdb_distance_calcs_total", "", "Distance function invocations.",
		func() float64 { return float64(db.ProcessorStats().DistCalcs) })
	reg.Counter("metricdb_distance_partial_total", "", "Distance calculations abandoned early by the bounded kernels.",
		func() float64 { return float64(db.ProcessorStats().PartialAbandoned) })
	reg.Counter("metricdb_distance_pivot_total", engLabel, "Distance calculations spent on pivot-table filtering (a partition of the distance budget).",
		func() float64 { return float64(db.ProcessorStats().PivotDistCalcs) })

	reg.Gauge("metricdb_wire_connections", "", "Open client connections.",
		func() float64 { return float64(srv.ConnCount()) })
	reg.Counter("metricdb_wire_requests_total", "", "Requests received on the wire protocol.",
		func() float64 { return float64(srv.RequestCount()) })
	reg.Counter("metricdb_wire_bad_requests_total", "", "Requests rejected with code bad_request.",
		func() float64 { return float64(srv.BadRequestCount()) })
	reg.Counter("metricdb_wire_engine_errors_total", "", "Requests failed with code engine_error.",
		func() float64 { return float64(srv.EngineErrorCount()) })
	reg.Counter("metricdb_wire_refused_total", "", "Connections refused (overload or shutdown).",
		func() float64 { return float64(srv.RefusedCount()) })
	if adm := srv.Admitter(); adm != nil {
		reg.Gauge("metricdb_admit_queue_depth", "", "Requests waiting in the admission queue.",
			func() float64 { return float64(adm.QueueDepth()) })
		reg.Gauge("metricdb_admit_width_target", "", "Most recent adaptive batch-width target.",
			func() float64 { return float64(adm.WidthTarget()) })
		reg.Gauge("metricdb_admit_width_achieved", "", "Achieved mean batch width across executed blocks.",
			adm.AvgWidth)
		reg.Counter("metricdb_admit_admitted_total", "", "Queries answered through a formed batch.",
			func() float64 { return float64(adm.Admitted()) })
		reg.Counter("metricdb_admit_batches_total", "", "Batches executed by the admission former.",
			func() float64 { return float64(adm.Batches()) })
		for _, r := range []struct {
			reason string
			count  func() int64
		}{
			{"queue_full", func() int64 { f, _, _ := adm.ShedByReason(); return f }},
			{"deadline", func() int64 { _, d, _ := adm.ShedByReason(); return d }},
			{"shutting_down", func() int64 { _, _, s := adm.ShedByReason(); return s }},
		} {
			count := r.count
			reg.Counter("metricdb_admit_shed_total", fmt.Sprintf("reason=%q", r.reason),
				"Requests shed by the admission controller.",
				func() float64 { return float64(count()) })
		}
	}
	return reg
}
