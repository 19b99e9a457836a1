package engines

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"metricdb/internal/dataset"
	"metricdb/internal/engine"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// TestAppendPlanIsPlan: every engine that plans per query appends to a
// caller's buffer exactly the refs its Plan returns — same pages, same bits,
// same order — after whatever the buffer already holds, which it leaves as
// it was; and into a buffer an earlier plan grew it allocates nothing, at
// +Inf (a k-NN query's first plan), at a 10-NN query distance (the tenth
// smallest true distance) and at other finite bounds. The scan, whose plan
// is one shared slice, does not append.
func TestAppendPlanIsPlan(t *testing.T) {
	const n, dim, capacity = 4000, 8, 64
	items := dataset.Uniform(13008, n, dim)
	rng := rand.New(rand.NewSource(44))
	for _, kind := range Kinds() {
		eng, err := Build(Spec{Kind: kind, Items: items, Dim: dim, PageCapacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := eng.Prepare(items[0].Vec).(engine.PlanAppender); ok != (kind != Scan) {
			t.Fatalf("%s: handle is a PlanAppender: %v", kind, ok)
		}
		if kind == Scan {
			continue
		}
		for round := 0; round < 8; round++ {
			q := make(vec.Vector, dim)
			for d := range q {
				q[d] = 1.2*rng.Float64() - 0.1
			}
			pq := eng.Prepare(q)
			pa := pq.(engine.PlanAppender)
			dists := make([]float64, len(items))
			for i, it := range items {
				dists[i] = vec.Euclidean{}.Distance(q, it.Vec)
			}
			slices.Sort(dists)
			for _, queryDist := range []float64{math.Inf(1), dists[9], 0.3, 0} {
				label := fmt.Sprintf("%s round %d queryDist=%v", kind, round, queryDist)
				want := pq.Plan(queryDist)
				prefix := []engine.PageRef{{ID: 7, MinDist: -1}, {ID: 3, MinDist: -2}}
				got := pa.AppendPlan(prefix[:2:2], queryDist)
				if len(got) != len(prefix)+len(want) || got[0] != prefix[0] || got[1] != prefix[1] {
					t.Fatalf("%s: appended %d refs after %v, want %d after the prefix", label, len(got)-2, got[:min(2, len(got))], len(want))
				}
				for i, r := range want {
					if g := got[len(prefix)+i]; g.ID != r.ID || math.Float64bits(g.MinDist) != math.Float64bits(r.MinDist) {
						t.Fatalf("%s: ref %d is %+v, Plan's %+v", label, i, g, r)
					}
				}
				if queryDist == 0 {
					continue
				}
				buf := pa.AppendPlan(nil, queryDist)
				if allocs := testing.AllocsPerRun(20, func() { buf = pa.AppendPlan(buf[:0], queryDist) }); allocs != 0 {
					t.Errorf("%s: %v allocations per plan into a grown buffer, want 0", label, allocs)
				}
			}
		}
	}
}

// BenchmarkBatchAllocs prices what a one-shot k-NN batch allocates on each
// engine over the engines_lowdim shape — 20 000 near-uniform 8-d items of
// intrinsic dimension 4, 32 KB pages, the 10 % buffer — one batch of 16
// queries (k = 10) per operation through Processor.MultiQuery, a fresh
// session each, as that workload runs them. It reports B/query and
// allocs/query beside the time.
func BenchmarkBatchAllocs(b *testing.B) {
	const n, dim, width, batches = 20000, 8, 16, 64
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
	rng := rand.New(rand.NewSource(44))
	qs := make([][]msq.Query, batches)
	for i := range qs {
		qs[i] = make([]msq.Query, width)
		for j := range qs[i] {
			v := vec.Vector(append([]float64(nil), items[rng.Intn(n)].Vec...))
			for d := range v {
				v[d] += 0.01 * rng.NormFloat64()
			}
			qs[i][j] = msq.Query{ID: uint64(j), Vec: v, Type: query.NewKNN(10)}
		}
	}
	for _, kind := range Kinds() {
		spec.Kind = kind
		eng, err := Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(kind), func(b *testing.B) {
			for _, batch := range qs { // warm the buffer and the engine's free lists
				if _, _, err := proc.MultiQuery(batch); err != nil {
					b.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := proc.MultiQuery(qs[i%batches]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			queries := float64(b.N * width)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/queries, "B/query")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/queries, "allocs/query")
		})
	}
}
