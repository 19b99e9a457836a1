package msq

import (
	"fmt"
	"testing"

	"metricdb/internal/engine"
	"metricdb/internal/pivot"
	"metricdb/internal/pmtree"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vafile"
	"metricdb/internal/vec"
	"metricdb/internal/xtree"
)

// The layout differential harness pins the contract of columnar pages: a
// run over pages whose items alias one contiguous block is bit-identical
// to a run over pages whose items own their vectors, in answers AND in
// every statistic (I/O, buffer behaviour, DistCalcs/Avoided/AvoidTries,
// PartialAbandoned). The page pass is the same on
// both — the processor takes no layout — so what is compared is the page
// materialization.

// layoutMakers mirrors diffMakers but materializes the given page
// representation on every page at build time.
func layoutMakers(spec store.ColumnSpec) []diffMaker {
	return []diffMaker{
		{"scan", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := scan.NewWithConfig(items, scan.Config{PageCapacity: 16, BufferPages: 4, Columns: spec})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"xtree", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := xtree.Bulk(items, dim, xtree.Config{LeafCapacity: 16, DirFanout: 8, BufferPages: 4, Metric: m, Columns: spec})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"vafile", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := vafile.New(items, vafile.Config{PageCapacity: 16, BufferPages: 4, Metric: m, Columns: spec})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"pivot", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := pivot.New(items, pivot.Config{PageCapacity: 16, BufferPages: 4, Pivots: 8, Metric: m, Columns: spec})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"pmtree", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := pmtree.New(items, pmtree.Config{PageCapacity: 16, BufferPages: 4, Pivots: 8, Metric: m, Columns: spec})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
	}
}

// TestDifferentialLayoutSoA: for every engine × metric × avoidance mode ×
// width (runDifferential), the SoA run must be indistinguishable from the AoS run — answers
// and the full Stats record compare with ==.
func TestDifferentialLayoutSoA(t *testing.T) {
	const dim = 4
	items := testDB(41, 300, dim)
	queries := diffBatch(dim, 42)
	metrics := []struct {
		name string
		m    vec.Metric
	}{
		{"euclidean", vec.Euclidean{}},
		{"manhattan", vec.Manhattan{}},
	}
	aosMakers := diffMakers()
	soaMakers := layoutMakers(store.ColumnSpec{Columnar: true})

	for i := range aosMakers {
		for _, mt := range metrics {
			for _, mode := range []AvoidanceMode{AvoidBoth, AvoidOff} {
				for _, width := range []int{1, 2, 8} {
					t.Run(fmt.Sprintf("%s/%s/%s/w%d", aosMakers[i].name, mt.name, mode, width), func(t *testing.T) {
						aos := runDifferential(t, aosMakers[i], mt.m, mode, width, items, dim, queries)
						soa := runDifferential(t, soaMakers[i], mt.m, mode, width, items, dim, queries)
						if diag, ok := identicalAnswers(aos.answers, soa.answers); !ok {
							t.Errorf("soa answers differ from aos: %s", diag)
						}
						if soa.stats != aos.stats {
							t.Errorf("soa stats differ:\n  aos: %+v\n  soa: %+v", aos.stats, soa.stats)
						}
						if soa.io != aos.io {
							t.Errorf("soa disk stats %+v, aos %+v", soa.io, aos.io)
						}
						if soa.hits != aos.hits || soa.misses != aos.misses {
							t.Errorf("soa buffer hits/misses %d/%d, aos %d/%d",
								soa.hits, soa.misses, aos.hits, aos.misses)
						}
					})
				}
			}
		}
	}
}

// TestDifferentialLayoutSoADegenerate runs the same comparison on the
// inputs where a limit, a distance or an answer count sits on a boundary:
// k larger than the database, ε = 0 at an item's own position, a database
// of identical items, and one query vector submitted under several IDs
// (inter-query distance 0, equal limits). Every batch is at least four
// wide, so with avoidance off the row body runs.
func TestDifferentialLayoutSoADegenerate(t *testing.T) {
	const dim, n = 4, 60
	items := testDB(43, n, dim)
	same := make([]store.Item, n)
	for i := range same {
		same[i] = store.Item{ID: store.ItemID(i), Vec: vec.Vector{0.5, 0.25, 0.75, 0.5}}
	}
	batch := func(vecs []vec.Vector, types ...query.Type) []Query {
		qs := make([]Query, len(types))
		for i, ty := range types {
			qs[i] = Query{ID: uint64(i), Vec: vecs[i%len(vecs)], Type: ty}
		}
		return qs
	}
	random := diffBatch(dim, 44)
	randomVecs := make([]vec.Vector, len(random))
	for i, q := range random {
		randomVecs[i] = q.Vec
	}
	cases := []struct {
		name    string
		items   []store.Item
		queries []Query
		// wantLen is the answer count every query must report.
		wantLen int
	}{
		{"k>n", items, batch(randomVecs,
			query.NewKNN(n+5), query.NewKNN(2*n), query.NewBoundedKNN(n+1, 10), query.NewKNN(n+1)), n},
		{"eps=0", items, batch([]vec.Vector{items[3].Vec, items[17].Vec, items[31].Vec, items[59].Vec},
			query.NewRange(0), query.NewRange(0), query.NewBoundedKNN(5, 0), query.NewRange(0)), 1},
		{"identical-items", same, batch([]vec.Vector{same[0].Vec, randomVecs[1], same[0].Vec, randomVecs[3], randomVecs[4]},
			query.NewRange(0), query.NewKNN(n), query.NewBoundedKNN(n, 0), query.NewRange(5), query.NewKNN(n+1)), n},
		{"duplicate-queries", items, batch([]vec.Vector{randomVecs[0]},
			query.NewKNN(n), query.NewKNN(n), query.NewRange(10), query.NewBoundedKNN(n, 10), query.NewKNN(n)), n},
	}
	aosMakers := diffMakers()
	soaMakers := layoutMakers(store.ColumnSpec{Columnar: true})
	for _, tc := range cases {
		for i := range aosMakers {
			for _, mode := range []AvoidanceMode{AvoidBoth, AvoidOff} {
				for _, width := range []int{1, 2, 8} {
					t.Run(fmt.Sprintf("%s/%s/%s/w%d", tc.name, aosMakers[i].name, mode, width), func(t *testing.T) {
						m := vec.Euclidean{}
						aos := runDifferential(t, aosMakers[i], m, mode, width, tc.items, dim, tc.queries)
						soa := runDifferential(t, soaMakers[i], m, mode, width, tc.items, dim, tc.queries)
						for q, ans := range aos.answers {
							if len(ans) != tc.wantLen {
								t.Errorf("query %d: %d answers, want %d", q, len(ans), tc.wantLen)
							}
						}
						if diag, ok := identicalAnswers(aos.answers, soa.answers); !ok {
							t.Errorf("soa answers differ from aos: %s", diag)
						}
						if soa.stats != aos.stats {
							t.Errorf("soa stats differ:\n  aos: %+v\n  soa: %+v", aos.stats, soa.stats)
						}
						if soa.io != aos.io {
							t.Errorf("soa disk stats %+v, aos %+v", soa.io, aos.io)
						}
					})
				}
			}
		}
	}
}
