package engines

import (
	"testing"

	"metricdb/internal/dataset"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// BenchmarkBuild prices each engine's construction over the engines_lowdim
// shape — 20 000 near-uniform 8-d items of intrinsic dimension 4, 32 KB
// pages, the 10 % buffer — which is what that workload's setup_s and every
// metricdb.Open pay. Run it with -benchmem; -cpuprofile splits a build.
func BenchmarkBuild(b *testing.B) {
	const n, dim = 20000, 8
	items, err := dataset.NearUniform(1, n, dim, 4, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	capacity := store.PageCapacityForBlockSize(32768, dim)
	spec := Spec{
		Items:        items,
		Dim:          dim,
		Metric:       vec.Euclidean{},
		PageCapacity: capacity,
		BufferPages:  store.DefaultBufferPages((n + capacity - 1) / capacity),
	}
	for _, kind := range Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			spec.Kind = kind
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
