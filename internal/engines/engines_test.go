package engines

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"metricdb/internal/dataset"
	"metricdb/internal/engine"
	"metricdb/internal/msq"
	"metricdb/internal/pivot"
	"metricdb/internal/query"
	"metricdb/internal/vec"
)

// engineWork is one (dim, m, engine) row of the work golden: the
// deterministic counters of one cold k-NN batch.
type engineWork struct {
	dim, m                          int
	engine                          Kind
	distCalcs, pagesRead, pivotDist int64
}

// engineWorkGolden holds the counters every engine pays for the same
// batches: 4 000 uniform items per dimensionality, k = 10, 64 items a
// page, a buffer of every page, 8 pivots (the pivot table's set here, the
// PM-tree's by default), both lemmas on, width 1, a fresh engine per
// batch. A changed row means an engine now reads or computes something
// else — a plan, a bound or a split decision moved — and the change has to
// say why.
var engineWorkGolden = []engineWork{
	{4, 1, Scan, 4000, 63, 0},
	{4, 1, XTree, 184, 4, 0},
	{4, 1, VAFile, 896, 14, 0},
	{4, 1, Pivot, 1280, 20, 8},
	{4, 1, PMTree, 384, 6, 80},
	{4, 8, Scan, 12699, 63, 0},
	{4, 8, XTree, 2711, 48, 0},
	{4, 8, VAFile, 7201, 52, 0},
	{4, 8, Pivot, 9559, 62, 64},
	{4, 8, PMTree, 3579, 39, 640},
	{4, 32, Scan, 20681, 63, 0},
	{4, 32, XTree, 6842, 84, 0},
	{4, 32, VAFile, 15729, 63, 0},
	{4, 32, Pivot, 17207, 63, 256},
	{4, 32, PMTree, 8988, 57, 2560},
	{8, 1, Scan, 4000, 63, 0},
	{8, 1, XTree, 1535, 34, 0},
	{8, 1, VAFile, 1024, 16, 0},
	{8, 1, Pivot, 3264, 51, 8},
	{8, 1, PMTree, 1888, 30, 80},
	{8, 8, Scan, 22857, 63, 0},
	{8, 8, XTree, 8318, 84, 0},
	{8, 8, VAFile, 9997, 54, 0},
	{8, 8, Pivot, 21356, 63, 64},
	{8, 8, PMTree, 11568, 62, 640},
	{8, 32, Scan, 63750, 63, 0},
	{8, 32, XTree, 41936, 99, 0},
	{8, 32, VAFile, 35334, 63, 0},
	{8, 32, Pivot, 62268, 63, 256},
	{8, 32, PMTree, 44481, 63, 2560},
	{16, 1, Scan, 4000, 63, 0},
	{16, 1, XTree, 4000, 91, 0},
	{16, 1, VAFile, 896, 14, 0},
	{16, 1, Pivot, 4000, 63, 8},
	{16, 1, PMTree, 4000, 63, 80},
	{16, 8, Scan, 31899, 63, 0},
	{16, 8, XTree, 31834, 94, 0},
	{16, 8, VAFile, 11101, 53, 0},
	{16, 8, Pivot, 31329, 63, 64},
	{16, 8, PMTree, 31733, 63, 640},
	{16, 32, Scan, 125631, 63, 0},
	{16, 32, XTree, 125190, 96, 0},
	{16, 32, VAFile, 49158, 61, 0},
	{16, 32, Pivot, 124808, 63, 256},
	{16, 32, PMTree, 124996, 63, 2560},
}

// TestEngineWorkGolden pins the distance calculations, pages read and pivot
// setup distances of every engine on the same seeded batches, and checks
// each engine answers exactly as the scan does. Items come from seed
// 13 000 + dim; one query stream per dim (seed 11 000 + dim) is drawn for
// m = 1, 8, 32 in that order and shared by all engines.
func TestEngineWorkGolden(t *testing.T) {
	const (
		n        = 4000
		capacity = 64
		k        = 10
	)
	var got []engineWork
	for _, dim := range []int{4, 8, 16} {
		items := dataset.Uniform(int64(13000+dim), n, dim)
		rng := rand.New(rand.NewSource(int64(11000 + dim)))
		for _, m := range []int{1, 8, 32} {
			queries := make([]msq.Query, m)
			for i := range queries {
				v := make(vec.Vector, dim)
				for j := range v {
					v[j] = rng.Float64()
				}
				queries[i] = msq.Query{ID: uint64(i), Vec: v, Type: query.NewKNN(k)}
			}
			var scanAnswers [][]query.Answer
			for _, kind := range []Kind{Scan, XTree, VAFile, Pivot, PMTree} {
				label := fmt.Sprintf("%s dim=%d m=%d", kind, dim, m)
				buffer := (n + capacity - 1) / capacity
				var eng engine.Engine
				var err error
				if kind == Pivot {
					// The rows were pinned at 8 pivots; Build takes the
					// pivot package's default.
					eng, err = pivot.New(items, pivot.Config{Pivots: 8, PageCapacity: capacity, BufferPages: buffer})
				} else {
					eng, err = Build(Spec{Kind: kind, Items: items, Dim: dim, PageCapacity: capacity, BufferPages: buffer})
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{Avoidance: msq.AvoidBoth})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				lists, stats, err := proc.NewSession().MultiQueryAll(queries)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				answers := make([][]query.Answer, len(lists))
				for i, l := range lists {
					answers[i] = slices.Clone(l.Answers())
				}
				if kind == Scan {
					scanAnswers = answers
				} else if !slices.EqualFunc(scanAnswers, answers, slices.Equal) {
					t.Errorf("%s: answers differ from the scan's", label)
				}
				got = append(got, engineWork{dim, m, kind, stats.DistCalcs, stats.PagesRead, stats.PivotDistCalcs})
			}
		}
	}
	if len(got) != len(engineWorkGolden) {
		t.Fatalf("%d rows, want %d", len(got), len(engineWorkGolden))
	}
	for i, want := range engineWorkGolden {
		if got[i] != want {
			t.Errorf("row %d: got %+v, want %+v", i, got[i], want)
		}
	}
}
