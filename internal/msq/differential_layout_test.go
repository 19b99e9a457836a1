package msq

import (
	"fmt"
	"testing"

	"metricdb/internal/engine"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// The layout differential harness pins that where a page's coordinates lie
// changes nothing: a run over items whose vectors are the rows of one
// contiguous item-major slab (the placement a columnar page gave them, the
// "soa" arms) is bit-identical to a run over items that own their vectors,
// in answers AND in every statistic (I/O, buffer behaviour,
// DistCalcs/Avoided/AvoidTries, PartialAbandoned).

// contiguousMakers mirrors diffMakers over contiguous copies of the items.
func contiguousMakers() []diffMaker {
	makers := diffMakers()
	for i := range makers {
		build := makers[i].make
		makers[i].make = func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			return build(t, contiguous(items), dim, m)
		}
	}
	return makers
}

// contiguous copies items, their coordinates into one item-major slab of
// which every copied vector is a capped row.
func contiguous(items []store.Item) []store.Item {
	out := make([]store.Item, len(items))
	var slab []float64
	for _, it := range items {
		slab = append(slab, it.Vec...)
	}
	for i, it := range items {
		out[i] = it
		out[i].Vec = slab[:it.Vec.Dim():it.Vec.Dim()]
		slab = slab[it.Vec.Dim():]
	}
	return out
}

// TestDifferentialLayoutSoA: for every engine × metric × avoidance mode ×
// width (runDifferential), the run over contiguous items ("soa") must be
// indistinguishable from the run over the items as built ("aos"): answers
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
	soaMakers := contiguousMakers()

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
	soaMakers := contiguousMakers()
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
