// Command msqserver serves similarity queries over TCP, providing the
// multiple similarity query as a basic DBMS operation (the paper's closing
// recommendation). The protocol is line-delimited JSON; each connection
// owns one incremental multi-query session.
//
// Usage:
//
//	msqserver -addr :7707 [-data dataset-dir] [-mmap]
//	          [-n 20000] [-dim 16]
//	          [-engine scan|xtree|vafile|pivot|pmtree] [-layout aos|soa]
//	          [-max-conns 0] [-max-request-bytes 1048576]
//	          [-read-timeout 0] [-write-timeout 10s] [-drain 5s]
//	          [-admin 127.0.0.1:7708] [-slow-query 100ms]
//	          [-admit] [-admit-queue 256] [-admit-max-width 16]
//	          [-admit-max-wait 2ms] [-admit-slo 1s] [-calibrate]
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
// GET /debug/advise (per-batch engine advice: ?m=8&k=10[&range=r][&seed=1];
// the response always carries a "warning" field — empty when the estimator
// ran cleanly, the fallback explanation otherwise — so a degraded ranking
// is never served silently) and /debug/pprof/*. When -admin is empty no
// tracer is installed and the query path runs with observability hooks
// disabled (the near-zero overhead configuration).
//
// -calibrate attaches the advisor calibration loop: every completed batch
// is scored against the cost model's prediction for the active engine,
// /metrics exports the metricdb_advisor_* gauges (prediction error, learned
// correction factors, fitted unit constants), /debug/advise?calibrated=1
// additionally returns the raw-vs-calibrated rankings with the recent
// residual history, and — combined with -admit — the admission release
// gate consults the calibrated model's width-m pricing once it has enough
// samples.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
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
		layout   = flag.String("layout", "", "page layout: aos (default) or soa — soa materializes each page's vectors in one contiguous block")

		maxConns  = flag.Int("max-conns", 0, "concurrent connection limit (0 = unlimited)")
		maxReqLen = flag.Int("max-request-bytes", wire.DefaultMaxRequestBytes, "request line size cap")
		readTO    = flag.Duration("read-timeout", 0, "idle read deadline per connection (0 = none)")
		writeTO   = flag.Duration("write-timeout", 10*time.Second, "per-response write deadline (0 = none)")
		drain     = flag.Duration("drain", 5*time.Second, "graceful-shutdown grace period")

		adminAddr = flag.String("admin", "", "admin HTTP listen address for /metrics, /debug/traces, /debug/explain and /debug/pprof (empty = observability disabled)")
		slowQuery = flag.Duration("slow-query", obs.DefaultSlowQueryThreshold, "slow-query log threshold (needs -admin; negative disables the log)")
		node      = flag.String("node", "server", "node label on distributed trace spans recorded by this process")

		admitOn       = flag.Bool("admit", false, "enable admission control and cross-caller batch forming for single-query requests")
		admitQueue    = flag.Int("admit-queue", admit.DefaultMaxQueue, "admission queue bound (requests beyond it are shed with overload)")
		admitMaxWidth = flag.Int("admit-max-width", admit.DefaultMaxWidth, "maximum formed batch width m")
		admitMaxWait  = flag.Duration("admit-max-wait", admit.DefaultMaxWait, "maximum linger waiting for arrivals to widen a batch")
		admitSLO      = flag.Duration("admit-slo", admit.DefaultDefaultSLO, "deadline budget for requests that carry no deadline_ms")

		calibrate = flag.Bool("calibrate", false, "record predicted-vs-observed batch costs, export metricdb_advisor_* gauges, and let -admit consult the calibrated pricing")
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
	if err := run(*addr, *dataFile, *mmap, *n, *dim, *engine, *layout, *calibrate, cfg, *drain, *adminAddr, *slowQuery, *node); err != nil {
		fmt.Fprintln(os.Stderr, "msqserver:", err)
		os.Exit(1)
	}
}

func run(addr, dataFile string, mmap bool, n, dim int, engine, layout string, calibrate bool, cfg wire.ServerConfig, drain time.Duration, adminAddr string, slowQuery time.Duration, node string) error {
	src := dataSource{mmap: mmap, layout: layout, calibrate: calibrate}
	if dataFile != "" {
		src.dir = dataFile
	} else {
		items, err := dataset.Clustered(dataset.ClusteredConfig{Seed: 1, N: n, Dim: dim, Clusters: 8})
		if err != nil {
			return err
		}
		src.items = items
	}

	db, srv, lis, adminLis, err := serve(addr, src, engine, cfg, adminAddr, slowQuery, node)
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
	items     []metricdb.Item
	dir       string
	mmap      bool
	layout    string
	calibrate bool
}

// serve builds the database and binds the listeners (separated for tests).
// When adminAddr is non-empty the query path runs with a tracer installed
// and the returned adminListener serves the observability endpoints. The
// caller owns the returned DB and must Close it after shutdown.
func serve(addr string, src dataSource, engine string, cfg wire.ServerConfig, adminAddr string, slowQuery time.Duration, node string) (*metricdb.DB, *wire.Server, net.Listener, *adminListener, error) {
	opts := metricdb.Options{Engine: metricdb.EngineKind(engine), Mmap: src.mmap, Layout: src.layout, Calibrate: src.calibrate}
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
		tracer = obs.New(obs.Config{SlowQueryThreshold: slowQuery, Node: node})
		proc = proc.WithTracer(tracer) // also installs the pager's page_fetch hook
		cfg.Tracer = tracer
	}
	if src.calibrate && cfg.Admit != nil {
		// Close the loop: the admission release gate consults the calibrated
		// model's width-m pricing (silent until the recorder has evidence),
		// and every admitted block feeds an observation back.
		cfg.Admit.PredictBlock = db.PredictBlock
		cfg.Admit.BlockObserver = db.ObserveBlock
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
					obs.Endpoint{Pattern: "/debug/advise", Handler: adviseHandler(db)},
				),
				ReadHeaderTimeout: 5 * time.Second,
			},
			lis: alis,
		}
	}
	return db, srv, lis, admin, nil
}

// adviseResponse wraps Advice for the admin endpoint. The outer Warning
// shadows the embedded omitempty field so the "warning" key is always
// present in the JSON: an empty string is the explicit healthy signal, and
// a fallback explanation can never be mistaken for a clean run by a client
// that only checks key presence.
type adviseResponse struct {
	metricdb.Advice
	Warning     string                     `json:"warning"`
	Calibration *metricdb.CalibrationStats `json:"calibration,omitempty"`
}

// adviseHandler serves GET /debug/advise: it prices every engine for a
// synthetic batch shaped by the query parameters (m = batch width, k = kNN
// cardinality, range = radius turning the batch into range queries, seed)
// against the live dataset, and returns the per-batch Advice as JSON —
// recommended engine, reason, intrinsic dimensionality, the predicted cost
// of every candidate engine, and (with -calibrate) the calibrated ranking.
// ?calibrated=1 additionally attaches the recorder snapshot with the recent
// residual history; it is a 400 when the server runs without -calibrate.
func adviseHandler(db *metricdb.DB) http.HandlerFunc {
	intParam := func(r *http.Request, name string, def int) (int, error) {
		s := r.URL.Query().Get(name)
		if s == "" {
			return def, nil
		}
		return strconv.Atoi(s)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		m, err := intParam(r, "m", 8)
		if err == nil && m < 1 {
			err = fmt.Errorf("m must be >= 1")
		}
		k, kerr := intParam(r, "k", 10)
		if err == nil {
			err = kerr
		}
		if err == nil && k < 1 {
			err = fmt.Errorf("k must be >= 1")
		}
		seed, serr := intParam(r, "seed", 1)
		if err == nil {
			err = serr
		}
		qt := metricdb.KNNQuery(k)
		if s := r.URL.Query().Get("range"); err == nil && s != "" {
			radius, perr := strconv.ParseFloat(s, 64)
			if perr != nil || radius < 0 {
				err = fmt.Errorf("bad range %q", s)
			} else {
				qt = metricdb.RangeQuery(radius)
			}
		}
		wantCalib := false
		if s := r.URL.Query().Get("calibrated"); err == nil && s != "" {
			wantCalib, err = strconv.ParseBool(s)
			if err != nil {
				err = fmt.Errorf("bad calibrated %q", s)
			} else if wantCalib && db.Calibration() == nil {
				err = fmt.Errorf("calibration is not enabled (run msqserver with -calibrate)")
			}
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}

		// Query points are dataset items at a deterministic stride, so the
		// batch is representative of the data and the advice reproducible.
		items := db.Items()
		stride := len(items) / m
		if stride < 1 {
			stride = 1
		}
		batch := make([]metricdb.Query, m)
		for i := range batch {
			batch[i] = metricdb.Query{ID: uint64(i), Vec: items[(i*stride)%len(items)].Vec, Type: qt}
		}
		advice, err := db.AdviseBatch(batch, int64(seed))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp := adviseResponse{Advice: advice, Warning: advice.Warning}
		if wantCalib {
			snap := db.Calibration().Snapshot(32)
			resp.Calibration = &snap
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp) //nolint:errcheck // best effort on a live conn
	}
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

	if rec := db.Calibration(); rec != nil {
		eng := engine
		for _, counter := range []string{"dist_calcs", "pages_read"} {
			counter := counter
			reg.Gauge("metricdb_advisor_abs_pct_error",
				fmt.Sprintf("engine=%q,counter=%q,model=%q", eng, counter, "raw"),
				"EWMA absolute relative prediction error of the cost model, per counter; model=raw is the uncorrected paper model, model=calibrated the leave-one-out corrected one.",
				func() float64 { return rec.AbsPctError(eng, counter, false) })
			reg.Gauge("metricdb_advisor_abs_pct_error",
				fmt.Sprintf("engine=%q,counter=%q,model=%q", eng, counter, "calibrated"),
				"EWMA absolute relative prediction error of the cost model, per counter; model=raw is the uncorrected paper model, model=calibrated the leave-one-out corrected one.",
				func() float64 { return rec.AbsPctError(eng, counter, true) })
			reg.Gauge("metricdb_advisor_factor",
				fmt.Sprintf("engine=%q,counter=%q", eng, counter),
				"Learned multiplicative correction applied to the raw model's counter prediction (1 = uncorrected).",
				func() float64 { return rec.Factor(eng, counter) })
		}
		for _, unit := range []string{"dist_calc", "page_read", "time_scale"} {
			unit := unit
			reg.Gauge("metricdb_advisor_fitted_ns",
				fmt.Sprintf("engine=%q,unit=%q", eng, unit),
				"Fitted unit time constants in nanoseconds (time_scale is the dimensionless wall-clock scale); 0 while unfitted.",
				func() float64 { return rec.FittedNs(eng, unit) })
		}
		reg.Gauge("metricdb_advisor_samples", engLabel,
			"Batches recorded by the advisor calibration loop.",
			func() float64 { return float64(rec.EngineSamples(eng)) })
	}

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
