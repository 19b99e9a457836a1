package parallel

import (
	"strings"
	"testing"

	"metricdb/internal/dataset"
	"metricdb/internal/engines"
	"metricdb/internal/msq"
	"metricdb/internal/obs"
	"metricdb/internal/query"
	"metricdb/internal/store"
)

// traceWorkload builds a small cluster workload for the metrics test.
func traceWorkload(t *testing.T) ([]store.Item, []msq.Query) {
	t.Helper()
	const dim = 3
	items := dataset.Uniform(31, 300, dim)
	qItems, err := dataset.SampleQueries(32, items, 3)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]msq.Query, len(qItems))
	for i, it := range qItems {
		queries[i] = msq.Query{ID: uint64(it.ID), Vec: it.Vec, Type: query.NewKNN(4)}
	}
	return items, queries
}

// TestClusterTraceWithRetrySiblings: one batch with a failed first attempt
// on server 0 records a single trace whose root has one server_call child
// per server attempt — the failed attempt and its retry appear as siblings.
func TestClusterTraceWithRetrySiblings(t *testing.T) {
	tr := obs.New(obs.Config{SlowQueryThreshold: -1, Node: "coordinator"})
	once := func(n int) error {
		if n == 1 {
			return errDown
		}
		return nil
	}
	c, _, _, queries := fakeCluster(t, FanOut{Retries: 2, Tracer: tr}, once, nil, nil)
	if _, rep, err := c.MultiQueryAll(queries); err != nil {
		t.Fatal(err)
	} else if rep.Degraded {
		t.Fatalf("transient fault left the result degraded: %+v", rep)
	}
	checkRetrySiblings(t, tr, 3)
}

// checkRetrySiblings checks the trace of one operation whose server 0
// failed its first attempt and answered its second: one trace whose root
// holds one server_call span per attempt, the two attempts side by side.
func checkRetrySiblings(t *testing.T, tr *obs.Tracer, servers int) {
	t.Helper()
	ids := tr.TraceIDs()
	if len(ids) != 1 {
		t.Fatalf("TraceIDs = %v, want one trace for one operation", ids)
	}
	tree := tr.Trace(ids[0])
	if tree == nil || tree.Name != "multi_all" || len(tree.Children) != servers+1 {
		t.Fatalf("trace root = %+v, want multi_all with %d server calls", tree, servers+1)
	}
	var failed, retried int
	for _, ch := range tree.Children {
		if ch.Name != "server_call" {
			t.Errorf("child span %q, want server_call", ch.Name)
		}
		if ch.Err != "" {
			failed++
			if ch.Node != "srv0" || ch.Attempt != 1 {
				t.Errorf("failed span = %+v, want srv0 attempt 1", ch.DistSpan)
			}
		}
		if ch.Attempt > 1 {
			retried++
			if ch.Node != "srv0" {
				t.Errorf("retry span on %q, want srv0", ch.Node)
			}
		}
	}
	if failed != 1 || retried != 1 {
		t.Errorf("trace shows %d failed and %d retry spans, want 1 and 1", failed, retried)
	}
}

// TestClusterRegisterMetricsLabels: a coordinator scrape exposes every
// server's live counters and phase histograms under server="i" labels.
func TestClusterRegisterMetricsLabels(t *testing.T) {
	items, queries := traceWorkload(t)
	const servers = 2
	coord := obs.New(obs.Config{SlowQueryThreshold: -1, Node: "coordinator"})
	serverTrs := make([]*obs.Tracer, servers)
	for i := range serverTrs {
		serverTrs[i] = obs.New(obs.Config{SlowQueryThreshold: -1})
	}
	c, err := New(items, Config{
		Servers: servers, Strategy: RoundRobin, Engine: engines.Scan,
		Dim: 3, PageCapacity: 16, BufferPages: 4,
		FanOut: FanOut{Tracer: coord}, ServerTracers: serverTrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.MultiQueryAll(queries); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry(coord)
	c.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`metricdb_server_disk_reads_total{server="0"}`,
		`metricdb_server_disk_reads_total{server="1"}`,
		`metricdb_server_dist_calcs_total{server="0"}`,
		`metricdb_server_dist_abandoned_total{server="0"}`,
		`metricdb_server_buffer_hits_total{server="1"}`,
		`metricdb_server_buffer_misses_total{server="1"}`,
		`metricdb_server_buffer_evictions_total{server="1"}`,
		obs.PhaseHistogramMetric + `_count{phase="kernel",server="0"}`,
		obs.PhaseQuantileMetric + `{phase="kernel",quantile="0.99",server="1"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}
