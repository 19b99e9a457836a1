package main

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"metricdb/internal/admit"
	"metricdb/internal/dataset"
	"metricdb/internal/wire"
)

func TestServeEndToEnd(t *testing.T) {
	items := dataset.Uniform(3, 500, 4)
	db, srv, lis, _, err := serve("127.0.0.1:0", dataSource{items: items}, "xtree", wire.ServerConfig{}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	defer srv.Close()
	defer db.Close() //nolint:errcheck

	c, err := wire.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	answers, stats, err := c.Query(wire.QuerySpec{
		Vector: []float64{0.5, 0.5, 0.5, 0.5}, Kind: "knn", K: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 7 || stats.DistCalcs == 0 {
		t.Errorf("answers=%d stats=%+v", len(answers), stats)
	}
}

func TestServeRejectsBadEngine(t *testing.T) {
	items := dataset.Uniform(4, 50, 3)
	if _, _, _, _, err := serve("127.0.0.1:0", dataSource{items: items}, "btree", wire.ServerConfig{}, "", 0); err == nil {
		t.Error("unknown engine accepted")
	}
}

// TestServeRejectsRemovedLayoutsAndFiles: a -data path that is a regular
// file (the removed single-file format) fails with the way out. (The
// removed -layout flag is no flag at all now: the flag package refuses it.)
func TestServeRejectsRemovedLayoutsAndFiles(t *testing.T) {
	file := filepath.Join(t.TempDir(), "d.gob")
	if err := os.WriteFile(file, []byte("gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, _, err := serve("127.0.0.1:0", dataSource{dir: file}, "scan", wire.ServerConfig{}, "", 0)
	if err == nil || !strings.Contains(err.Error(), "regenerate it with msqgen") {
		t.Errorf("-data with a regular file: serve returned %v", err)
	}
}

// TestMalformedRequestGetsErrorResponse is the satellite contract: garbage
// on the wire yields a JSON error response with a bad_request code, not a
// silently dropped connection.
func TestMalformedRequestGetsErrorResponse(t *testing.T) {
	items := dataset.Uniform(5, 200, 3)
	db, srv, lis, _, err := serve("127.0.0.1:0", dataSource{items: items}, "scan", wire.ServerConfig{}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	defer srv.Close()
	defer db.Close() //nolint:errcheck

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("{this is not json\n")); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("no error response before close: %v", err)
	}
	if resp.Code != wire.CodeBadRequest || !strings.Contains(resp.Err, "malformed") {
		t.Errorf("response = %+v, want bad_request", resp)
	}
}

// TestGracefulDrain exercises the SIGINT/SIGTERM path: Shutdown stops the
// listener, lets connected clients finish, and Serve returns cleanly.
func TestGracefulDrain(t *testing.T) {
	items := dataset.Uniform(6, 300, 3)
	db, srv, lis, _, err := serve("127.0.0.1:0", dataSource{items: items}, "scan", wire.ServerConfig{}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()

	c, err := wire.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Query(wire.QuerySpec{Vector: []float64{0.1, 0.2, 0.3}, Kind: "knn", K: 2}); err != nil {
		t.Fatal(err)
	}

	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-served:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	// New connections are refused after the drain.
	if _, err := net.DialTimeout("tcp", lis.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
}

// TestAdminEndpoints serves with -admin enabled, runs a query over the
// wire, and checks that /metrics exposes every series an in-memory server
// registers and that /debug/traces returns the recorded spans as JSONL.
// It then serves with -admit and finds the admission series after several
// queries went through the batch former.
func TestAdminEndpoints(t *testing.T) {
	items := dataset.Uniform(7, 400, 4)
	db, srv, lis, admin, err := serve("127.0.0.1:0", dataSource{items: items}, "scan", wire.ServerConfig{}, "127.0.0.1:0", time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	defer srv.Close()
	defer db.Close() //nolint:errcheck
	if admin == nil {
		t.Fatal("admin listener not built")
	}
	go admin.srv.Serve(admin.lis) //nolint:errcheck
	defer admin.srv.Close()

	c, err := wire.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Query(wire.QuerySpec{Vector: []float64{0.5, 0.5, 0.5, 0.5}, Kind: "knn", K: 5}); err != nil {
		t.Fatal(err)
	}

	metrics := adminGet(t, admin, "/metrics")
	requireSeries(t, metrics,
		`metricdb_phase_duration_seconds_count{phase="kernel"}`,
		`metricdb_phase_duration_quantile_seconds{phase="kernel",quantile="0.95"}`,
		"metricdb_slow_queries_total 1",
		"metricdb_traced_queries_total 1",
		`metricdb_db_items{engine="scan"} 400`,
		`metricdb_db_pages{engine="scan"}`,
		`metricdb_disk_reads_total{kind="seq"}`,
		`metricdb_disk_reads_total{kind="rand"}`,
		"metricdb_buffer_hits_total",
		"metricdb_buffer_misses_total",
		"metricdb_buffer_evictions_total",
		"metricdb_buffer_pages",
		"metricdb_buffer_capacity_pages",
		`metricdb_row_kernel{isa="`+db.ProcessorStats().RowKernel+`"} 1`,
		"metricdb_distance_calcs_total",
		"metricdb_distance_partial_total",
		`metricdb_distance_pivot_total{engine="scan"} 0`,
		"metricdb_wire_connections 1",
		"metricdb_wire_requests_total 1",
		"metricdb_wire_bad_requests_total 0",
		"metricdb_wire_engine_errors_total 0",
		"metricdb_wire_refused_total 0",
	)
	for _, gone := range []string{"metricdb_advisor_", "metricdb_trace_spans_total", "metricdb_dist_spans_total",
		"metricdb_server_", `phase="server_call"`, "metricdb_admit_", "metricdb_storage_"} {
		if strings.Contains(metrics, gone) {
			t.Errorf("/metrics of an in-memory server without -admit serves %s*", gone)
		}
	}

	traces := adminGet(t, admin, "/debug/traces")
	if !strings.Contains(traces, `"phase":"kernel"`) {
		t.Errorf("/debug/traces has no kernel span: %.200s", traces)
	}
	var span map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(traces, "\n", 2)[0]), &span); err != nil {
		t.Errorf("/debug/traces first line is not JSON: %v", err)
	}

	slow := adminGet(t, admin, "/debug/slow")
	if !strings.Contains(slow, `"op": "single"`) {
		t.Errorf("/debug/slow missing the query at 1ns threshold: %.200s", slow)
	}

	// The process-specific /debug/explain endpoint is mounted on the same
	// admin mux and profiles a POSTed batch.
	body := strings.NewReader(`{"queries":[{"id":1,"vector":[0.5,0.5,0.5,0.5],"kind":"knn","k":5}]}`)
	resp, err := http.Post("http://"+admin.lis.Addr().String()+"/debug/explain", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	explain, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /debug/explain: status %d: %.200s", resp.StatusCode, explain)
	}
	if !strings.Contains(string(explain), `"pages_visited"`) {
		t.Errorf("/debug/explain has no profile: %.200s", explain)
	}

	// With -admit, single queries are answered through the batch former
	// and the admission series join the exposition.
	cfg := wire.ServerConfig{Admit: &admit.Config{
		MaxQueue:   admit.DefaultMaxQueue,
		MaxWidth:   admit.DefaultMaxWidth,
		MaxWait:    time.Millisecond,
		DefaultSLO: time.Second,
	}}
	adb, asrv, alis, aadmin, err := serve("127.0.0.1:0", dataSource{items: items}, "scan", cfg, "127.0.0.1:0", -1)
	if err != nil {
		t.Fatal(err)
	}
	go asrv.Serve(alis) //nolint:errcheck
	defer asrv.Close()
	defer adb.Close()               //nolint:errcheck
	go aadmin.srv.Serve(aadmin.lis) //nolint:errcheck
	defer aadmin.srv.Close()
	ac, err := wire.Dial(alis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	for i := 0; i < 4; i++ {
		answers, _, err := ac.Query(wire.QuerySpec{Vector: []float64{0.5, 0.4, 0.3, 0.2}, Kind: "knn", K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(answers) != 5 {
			t.Fatalf("admitted query %d: %d answers, want 5", i, len(answers))
		}
	}
	requireSeries(t, adminGet(t, aadmin, "/metrics"),
		"metricdb_admit_queue_depth 0",
		"metricdb_admit_width_target",
		"metricdb_admit_width_achieved",
		"metricdb_admit_admitted_total 4",
		"metricdb_admit_batches_total",
		`metricdb_admit_shed_total{reason="queue_full"} 0`,
		`metricdb_admit_shed_total{reason="deadline"}`,
		`metricdb_admit_shed_total{reason="shutting_down"} 0`,
		"metricdb_wire_requests_total 4",
	)
}

// adminGet fetches path from the admin listener and fails the test on any
// status but 200.
func adminGet(t *testing.T, admin *adminListener, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + admin.lis.Addr().String() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// requireSeries fails the test for every wanted line prefix the /metrics
// exposition lacks.
func requireSeries(t *testing.T, metrics string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(metrics, w) {
			t.Errorf("/metrics missing %q", w)
		}
	}
}

// TestServeStoredDataset serves a persistent dataset directory and checks
// that queries flow from the file-backed page store and that /metrics
// exports the metricdb_storage_* counters.
func TestServeStoredDataset(t *testing.T) {
	dir := t.TempDir()
	items := dataset.Uniform(8, 600, 4)
	if err := dataset.SaveDir(dir, items, dataset.SaveOptions{PageCapacity: 32, NoSync: true}); err != nil {
		t.Fatal(err)
	}
	db, srv, lis, admin, err := serve("127.0.0.1:0", dataSource{dir: dir}, "scan",
		wire.ServerConfig{}, "127.0.0.1:0", -1)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	defer srv.Close()
	defer db.Close()              //nolint:errcheck
	go admin.srv.Serve(admin.lis) //nolint:errcheck
	defer admin.srv.Close()

	if mode, ok := db.Stored(); !ok || mode == "" {
		t.Fatalf("served DB is not storage-backed (mode %q, ok %v)", mode, ok)
	}

	c, err := wire.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	answers, stats, err := c.Query(wire.QuerySpec{
		Vector: []float64{0.5, 0.5, 0.5, 0.5}, Kind: "knn", K: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 9 || stats.DistCalcs == 0 {
		t.Errorf("answers=%d stats=%+v", len(answers), stats)
	}

	requireSeries(t, adminGet(t, admin, "/metrics"),
		`metricdb_storage_mode{mode="pread"} 1`,
		"metricdb_storage_preads_total",
		"metricdb_storage_bytes_read_total",
		"metricdb_storage_checksum_failures_total 0",
		"metricdb_store_pages_reused_total",
		`metricdb_row_kernel{isa="`+db.ProcessorStats().RowKernel+`"} 1`,
	)
	st, ok := db.StorageStats()
	if !ok || st.Preads == 0 {
		t.Errorf("storage stats after query: %+v ok=%v", st, ok)
	}
}
