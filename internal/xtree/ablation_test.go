package xtree

import (
	"testing"

	"metricdb/internal/dataset"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// BenchmarkAblationSupernodes isolates the X-tree's supernode mechanism:
// MaxOverlap near 1 never builds supernodes (a plain R*-tree), the 0.2
// default is the X-tree, and a tiny threshold forces aggressive supernodes.
// The data is the root benchmarks' astronomy workload (10 000 near-uniform
// 20-d items, seed 1, 64 items a page, a buffer of 10 % of the pages a
// full packing would take, as metricdb.Open sizes it); reported: data pages
// read by a batch of 50 10-NN queries.
func BenchmarkAblationSupernodes(b *testing.B) {
	const dim = 20
	items, err := dataset.NearUniform(1, 10000, dim, 8, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	picks, err := dataset.SampleQueries(55, items, 50)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]msq.Query, len(picks))
	for i, it := range picks {
		queries[i] = msq.Query{ID: uint64(it.ID), Vec: it.Vec, Type: query.NewKNN(10)}
	}
	for _, c := range []struct {
		name       string
		maxOverlap float64
	}{
		{"rstar(maxOverlap=0.999)", 0.999},
		{"xtree(maxOverlap=0.2)", 0.2},
		{"aggressive(maxOverlap=0.01)", 0.01},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultConfig(dim)
			cfg.LeafCapacity = 64
			cfg.BufferPages = store.DefaultBufferPages((len(items) + 63) / 64)
			cfg.MaxOverlap = c.maxOverlap
			tr, err := Bulk(items, dim, cfg)
			if err != nil {
				b.Fatal(err)
			}
			proc, err := msq.New(tr, vec.Euclidean{}, msq.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var pages int64
			for i := 0; i < b.N; i++ {
				tr.Pager().ResetStats()
				if _, _, err := proc.NewSession().MultiQueryAll(queries); err != nil {
					b.Fatal(err)
				}
				pages = tr.Pager().Disk().Stats().Reads
			}
			b.ReportMetric(float64(pages), "pages")
		})
	}
}
