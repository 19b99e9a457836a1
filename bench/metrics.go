package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// decl declares one metric. The tables below are the single source of the
// benchmark's metric names: BENCHMARK.json is printed from them (-manifest)
// and the test checks that the committed file still matches.
type decl struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median the metric may worsen by
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. A bound is the issue's default, widened to about twice the
// widest relative quartile spread of ten seeds that any of nine calibration
// sets showed for the metric (README.md has the table). The contract caps a
// bound at 0.25.
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.20},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.20},
	{"alloc_kb_per_query", "KB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var engineNames = []string{"scan", "xtree", "vafile", "pivot", "pmtree"}

// perLayer are the metrics of single layers, from the traced run. A layer a
// workload does not exercise reports 0.
var perLayer = func() []decl {
	ds := []decl{
		{name: "msq.dist_calcs_per_query", unit: "count", better: "lower"},
		{name: "msq.avoided_share", unit: "ratio", better: "higher"},
		{name: "msq.tries_per_avoided", unit: "count", better: "lower"},
		{name: "msq.matrix_dist_calcs_per_query", unit: "count", better: "lower"},
		{name: "msq.abandoned_share", unit: "ratio", better: "higher"},
		{name: "msq.pages_per_query", unit: "count", better: "lower"},
		{name: "msq.self_ms_per_query", unit: "ms", better: "lower"},
		{name: "msq.multi_vs_single_wall_ratio", unit: "ratio", better: "higher"},
		{name: "msq.avoid_off_wall_ratio", unit: "ratio", better: "lower"},
		{name: "msq.soa_noavoid_wall_ratio", unit: "ratio", better: "lower"},
		{name: "msq.width_nproc_wall_ratio", unit: "ratio", better: "lower"},
		{name: "vec.ns_per_dist", unit: "ns", better: "lower"},
		{name: "vec.ns_per_dist_within", unit: "ns", better: "lower"},
		{name: "vec.row_ns_per_dist", unit: "ns", better: "lower"},
		{name: "vec.kernel_share", unit: "ratio", better: "lower"},
		{name: "store.read_us_per_page", unit: "us", better: "lower"},
		{name: "store.read_share", unit: "ratio", better: "lower"},
		{name: "store.reads_per_query", unit: "count", better: "lower"},
		{name: "store.buffer_hit_ratio", unit: "ratio", better: "higher"},
		{name: "store.evictions_per_query", unit: "count", better: "lower"},
		{name: "store.bytes_read_per_query", unit: "B", better: "lower"},
		{name: "store.checksum_failures", unit: "count", better: "lower"},
		{name: "store.bytes_per_user_byte", unit: "ratio", better: "lower"},
		{name: "store.write_s", unit: "s", better: "lower"},
	}
	for _, e := range engineNames {
		ds = append(ds,
			decl{name: e + ".us_per_query", unit: "us", better: "lower"},
			decl{name: e + ".wall_ratio_vs_scan", unit: "ratio", better: "lower"},
			decl{name: e + ".dist_calc_ratio_vs_scan", unit: "ratio", better: "lower"},
			decl{name: e + ".pages_per_query", unit: "count", better: "lower"},
			decl{name: e + ".prepare_us_per_query", unit: "us", better: "lower"},
			decl{name: e + ".plan_us_per_query", unit: "us", better: "lower"},
			decl{name: e + ".build_s", unit: "s", better: "lower"},
		)
	}
	return append(ds,
		decl{name: "explore.steps_per_job", unit: "count", better: "lower"},
		decl{name: "explore.self_share", unit: "ratio", better: "lower"},
		decl{name: "wire.rtt_us_p50", unit: "us", better: "lower"},
		decl{name: "wire.rtt_us_p99", unit: "us", better: "lower"},
		decl{name: "wire.self_us_per_req", unit: "us", better: "lower"},
		decl{name: "wire.codec_us_per_req", unit: "us", better: "lower"},
		decl{name: "wire.req_bytes", unit: "B", better: "lower"},
		decl{name: "wire.resp_bytes", unit: "B", better: "lower"},
		decl{name: "wire.error_share", unit: "ratio", better: "lower"},
		decl{name: "admit.wait_us_p50", unit: "us", better: "lower"},
		decl{name: "admit.avg_width", unit: "count", better: "higher"},
		decl{name: "admit.shed_share", unit: "ratio", better: "lower"},
		decl{name: "admit.batches_per_s", unit: "1/s", better: "higher"},
		decl{name: "obs.tracer_on_wall_ratio", unit: "ratio", better: "lower"},
		decl{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},
		decl{name: "bench.unattributed_ms_per_op", unit: "ms", better: "lower"},
		decl{name: "bench.generate_s", unit: "s", better: "lower"},
		decl{name: "bench.oracle_s", unit: "s", better: "lower"},
	)
}()

// workloadWhy records why each workload exists (one line each; the long
// form is in README.md).
var workloadWhy = []struct{ name, why string }{
	{"batch_knn_scan", "CPU-bound wide k-NN batches on the scan: msq (matrix, avoidance, page loop, merge) and vec do nearly all the work, store almost none"},
	{"dbscan_xtree", "the paper's headline use: 20 000 dependent range queries through the incremental MultiQuery and its answer buffer, selective X-tree plans, random I/O"},
	{"engines_lowdim", "all five engines answer the same low-dimensional k-NN batches, so index planning (Prepare/Plan/MinDist) dominates and a slow engine shows in wall time"},
	{"serve_stored", "single queries over loopback TCP against a stored dataset ten times the buffer: wire, admit and real store reads are a large share of each request"},
}

// metrics maps a metric name to its measured value.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// manifest renders BENCHMARK.json from the tables above.
func manifest(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadWhy {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// resultLine renders the one-line JSON object the contract asks for as the
// last line of standard output.
func resultLine(res *result, decls []decl) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]mv{}}
	for _, d := range decls {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("bench: metric %s has no finite value (%v)", d.name, v)
		}
		out.Metrics[d.name] = mv{v, d.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
