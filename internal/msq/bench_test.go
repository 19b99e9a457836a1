package msq

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"metricdb/internal/dataset"
	"metricdb/internal/engine"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
	"metricdb/internal/xtree"
)

// BenchmarkMultiQueryAll measures a whole multi-query batch per iteration.
// Run with -benchmem: allocations per op must stay flat in the page count,
// because the page pass's scratch is sized once per session and reused
// across pages.
func BenchmarkMultiQueryAll(b *testing.B) {
	const n, dim, m = 4096, 16, 12
	items := testDB(5, n, dim)
	rng := rand.New(rand.NewSource(6))
	queries := make([]Query, m)
	for i := range queries {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		queries[i] = Query{ID: uint64(i + 1), Vec: v, Type: query.NewKNN(8)}
	}

	b.Run("scan", func(b *testing.B) {
		e, err := scan.New(items, 32, 0)
		if err != nil {
			b.Fatal(err)
		}
		benchMultiQueryAll(b, e, queries)
	})
	b.Run("xtree", func(b *testing.B) {
		tr, err := xtree.Bulk(items, dim, xtree.Config{LeafCapacity: 32, DirFanout: 8, BufferPages: 0})
		if err != nil {
			b.Fatal(err)
		}
		benchMultiQueryAll(b, tr, queries)
	})
}

func benchMultiQueryAll(b *testing.B, eng engine.Engine, queries []Query) {
	proc, err := New(eng, vec.Euclidean{}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := proc.NewSession().MultiQueryAll(queries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoredScan is the serve_stored benchmark's page path without the
// wire: 10 000 items of dimension 16 on 42 stored pages behind a buffer of
// four, so every page of every scan is a copy out of the mapping (its
// CRC-32C folded in) and a decode, and one iteration is the two-query block
// the server's batch former builds.
// Run with -benchmem (allocation per block) or -cpuprofile (where a stored
// read spends its time).
func BenchmarkStoredScan(b *testing.B) {
	const n, dim, capacity = 10000, 16, 240
	items := testDB(9, n, dim)
	e, err := scan.NewWithConfig(items, scan.Config{
		PageCapacity: capacity, BufferPages: store.DefaultBufferPages((n + capacity - 1) / capacity),
		WrapDisk: persistToFileDisk(b, false),
	})
	if err != nil {
		b.Fatal(err)
	}
	proc, err := New(e, vec.Euclidean{}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	queries := []Query{
		{ID: 1, Vec: items[17].Vec, Type: query.NewKNN(10)},
		{ID: 2, Vec: items[4242].Vec, Type: query.NewKNN(10)},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := proc.NewSession().MultiQueryAll(queries); err != nil {
			b.Fatal(err)
		}
	}
}

// clusteredDB draws n objects from k Gaussian clusters and lays them out
// cluster by cluster, so a window of consecutive objects is a window of
// neighbours — the shape of DBSCAN's seed list.
func clusteredDB(tb testing.TB, seed int64, n, dim, k int, sigma float64) []store.Item {
	tb.Helper()
	items, err := dataset.Clustered(dataset.ClusteredConfig{Seed: seed, N: n, Dim: dim, Clusters: k, Spread: sigma})
	if err != nil {
		tb.Fatal(err)
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].Label < items[b].Label })
	for i := range items {
		items[i].ID = store.ItemID(i)
	}
	return items
}

// BenchmarkIncrementalWindow measures the mining loop of Definition 4: one
// iteration is one session answering a range query for every object, each
// call a window of m that slides by one, so m-1 of its queries are buffered
// from the call before. Run with -benchmem: per-call set-up must not grow
// with m² (the session keeps the query distances and the pass buffers), so
// bytes per iteration stay within a small factor of m = 1.
func BenchmarkIncrementalWindow(b *testing.B) {
	const n, dim = 4000, 8
	items := clusteredDB(b, 7, n, dim, 20, 0.03)
	tr, err := xtree.Bulk(items, dim, xtree.Config{LeafCapacity: 32, DirFanout: 8, BufferPages: 16})
	if err != nil {
		b.Fatal(err)
	}
	proc, err := New(tr, vec.Euclidean{}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	typ := query.NewRange(0.05)
	for _, m := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			batch := make([]Query, 0, m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := proc.NewSession()
				for lo := 0; lo < n; lo++ {
					batch = batch[:0]
					for j := lo; j < lo+m && j < n; j++ {
						batch = append(batch, Query{ID: uint64(j), Vec: items[j].Vec, Type: typ})
					}
					if _, _, err := s.MultiQuery(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkPassBodies prices one (query, item) pair of a page pass without
// the lemmas three ways — the scalar pair-by-pair reference (refPairs, what
// evalPairs' non-avoiding arm was), the item body and the row body — on an
// in-memory scan of 8 192 items, for the widths on both sides of
// rowThreshold. One iteration is every page for m fresh 10-NN queries, live
// limits; rowPath's constant is read off this table (EXPERIMENTS, "Items as
// lanes").
func BenchmarkPassBodies(b *testing.B) {
	const n = 8192
	for _, dim := range []int{8, 16} {
		items := testDB(int64(dim), n, dim)
		e, err := scan.New(items, 256, 0)
		if err != nil {
			b.Fatal(err)
		}
		proc, err := New(e, vec.Euclidean{}, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12} {
			queries := make([]Query, m)
			for i := range queries {
				queries[i] = Query{ID: uint64(i), Vec: testDB(int64(100*dim+i), 1, dim)[0].Vec, Type: query.NewKNN(10)}
			}
			for _, body := range []struct {
				name string
				body passBody
			}{{"pairs", bodyPairs}, {"items", bodyItems}, {"rows", bodyRows}} {
				b.Run(fmt.Sprintf("dim=%d/m=%d/%s", dim, m, body.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						s := proc.NewSession()
						states, _, err := s.prepare(queries)
						if err != nil {
							b.Fatal(err)
						}
						pass := s.pagePass(m, nil)
						for pid := 0; pid < e.NumPages(); pid++ {
							page, err := e.ReadPage(store.PageID(pid))
							if err != nil {
								b.Fatal(err)
							}
							pass.begin(page, states)
							evalBody(pass, body.body)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*m), "ns/pair")
				})
			}
		}
	}
}
