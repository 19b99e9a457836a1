package main

import (
	"math"
	"sort"
	"time"

	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// engineLayers fills the metrics of one engine from the operations tagged
// with it: wall time per query from the untraced pass, Prepare and Plan
// time from the traced pass's spans, page reads from the counters.
func engineLayers(r *traceResult, m metrics, name string, tag int, buildS float64) {
	q := float64(r.untraced.tagQuery[tag])
	m.set(name+".us_per_query", float64(r.untraced.tagWall[tag])/1e3/q)
	m.set(name+".pages_per_query", float64(r.traced.tagStats[tag].PagesRead)/q)
	m.set(name+".prepare_us_per_query", float64(r.tot.dur[name+".prepare"])/1e3/q)
	m.set(name+".plan_us_per_query", float64(r.tot.dur[name+".plan"])/1e3/q)
	m.set(name+".build_s", buildS)
}

// vecLayers probes the distance kernels standalone over the workload's own
// vectors and derives the two estimates that rest on the probe: the share
// of the wall time the kernels account for and msq's self time without
// them. The kernels are not wrapped during the run, because a wrapped
// metric would defeat the kernel selection in msq.New; callSelfNs is the
// self time of the spans that contain msq's work including the kernels.
func vecLayers(r *traceResult, m metrics, items []store.Item, queries []vec.Vector, callSelfNs float64) {
	st := r.traced.stats
	dist, within, row := vecProbes(items, queries, ratio(float64(st.PartialAbandoned), float64(st.DistCalcs)))
	m.set("vec.ns_per_dist", dist)
	m.set("vec.ns_per_dist_within", within)
	m.set("vec.row_ns_per_dist", row)
	kernelNs := float64(st.DistCalcs+st.MatrixDistCalcs) * within
	m.set("vec.kernel_share", kernelNs/float64(r.untraced.wall))
	m.set("msq.self_ms_per_query", (callSelfNs-kernelNs)/1e6/float64(r.traced.queries))
}

// vecProbes times the Euclidean kernels over up to 16 queries × 4096
// items: the plain distance, the bounded distance, and the blocked row
// kernel under the same limits. The limit is the distance quantile at which
// the probe abandons the share of calls the workload's own kernels
// abandoned, so the probe does the workload's mix of full and cut-short
// calculations. Each number is the fastest of three repetitions, in
// nanoseconds per (query, item) pair.
func vecProbes(items []store.Item, queries []vec.Vector, abandonShare float64) (dist, within, row float64) {
	if len(items) > 4096 {
		items = items[:4096]
	}
	if len(queries) > 16 {
		queries = queries[:16]
	}
	pairs := float64(len(items) * len(queries))
	euclid := vec.Euclidean{}
	ds := make([]float64, len(items))
	for i, it := range items {
		ds[i] = euclid.Distance(queries[0], it.Vec)
	}
	sort.Float64s(ds)
	limit := ds[int((1-abandonShare)*float64(len(ds)-1))]

	page := &store.Page{Items: append([]store.Item(nil), items...)}
	if err := store.ColumnizePage(page, store.ColumnSpec{Columnar: true}); err != nil {
		return 0, 0, 0 // no block, no probe: report 0 like any idle layer
	}
	kernel := vec.NewBlockKernel(euclid)
	limits := make([]float64, len(queries))
	for i := range limits {
		limits[i] = limit
	}
	dOut, wOut := make([]float64, len(queries)), make([]bool, len(queries))

	dist, within, row = math.Inf(1), math.Inf(1), math.Inf(1)
	var sink float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for _, q := range queries {
			for _, it := range items {
				sink += euclid.Distance(q, it.Vec)
			}
		}
		dist = math.Min(dist, float64(time.Since(t0))/pairs)
		t0 = time.Now()
		for _, q := range queries {
			for _, it := range items {
				d, _ := euclid.DistanceWithin(q, it.Vec, limit)
				sink += d
			}
		}
		within = math.Min(within, float64(time.Since(t0))/pairs)
		t0 = time.Now()
		for i := range page.Items {
			kernel.RowWithin(queries, page.Cols, i, limits, dOut, wOut)
		}
		row = math.Min(row, float64(time.Since(t0))/pairs)
	}
	probeSink = sink
	return dist, within, row
}

// probeSink keeps the probe loops' results alive so the compiler cannot
// remove the calls.
var probeSink float64
