package explore

import (
	"runtime"
	"testing"

	"metricdb/internal/dataset"
	"metricdb/internal/engines"
	"metricdb/internal/msq"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// BenchmarkDBSCAN is the shape of the benchmark module's dbscan_xtree
// workload, in the tree: one op is one DBSCAN job (ε = 0.05, minPts = 5,
// batches of m = 50) over 20 000 clustered 8-d objects (20 Gaussians,
// σ = 0.03) on an X-tree of 32 KB pages behind a buffer of 10 % of them. It
// reports the time and the heap bytes a job spends per neighbourhood query,
// so what a job allocates can be profiled without the benchmark module:
//
//	go test -run '^$' -bench BenchmarkDBSCAN -benchmem -memprofile mem.out ./internal/explore/
//	go tool pprof -sample_index=alloc_space -top mem.out
func BenchmarkDBSCAN(b *testing.B) {
	const n, dim, eps, minPts, m = 20000, 8, 0.05, 5, 50
	items, err := dataset.Clustered(dataset.ClusteredConfig{Seed: 1, N: n, Dim: dim, Clusters: 20, Spread: 0.03})
	if err != nil {
		b.Fatal(err)
	}
	capacity := store.PageCapacityForBlockSize(32768, dim)
	eng, err := engines.Build(engines.Spec{
		Kind: engines.XTree, Items: items, Dim: dim, PageCapacity: capacity,
		BufferPages: store.DefaultBufferPages((n + capacity - 1) / capacity),
	})
	if err != nil {
		b.Fatal(err)
	}
	proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Proc: proc, Items: items, BatchSize: m}
	if _, err := DBSCAN(cfg, eps, minPts); err != nil { // warms the buffer
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	queries := 0
	for i := 0; i < b.N; i++ {
		res, err := DBSCAN(cfg, eps, minPts)
		if err != nil {
			b.Fatal(err)
		}
		queries += res.Stats.Steps
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(queries), "ns/query")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(queries), "B/query")
}
