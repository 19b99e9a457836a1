package vafile

import (
	"fmt"
	"math/rand"
	"testing"

	"metricdb/internal/engine"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// BenchmarkSortRefs measures the plan ordering on large page counts — the
// regime where the previous insertion sort's quadratic cost dominated Plan
// for VA-files with thousands of pages.
func BenchmarkSortRefs(b *testing.B) {
	for _, n := range []int{256, 2048, 16384} {
		rng := rand.New(rand.NewSource(1))
		refs := make([]engine.PageRef, n)
		for i := range refs {
			refs[i] = engine.PageRef{ID: store.PageID(i), MinDist: rng.Float64()}
		}
		scratch := make([]engine.PageRef, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(scratch, refs)
				engine.SortPlan(scratch)
			}
		})
	}
}

func benchItems(rng *rand.Rand, n, dim int) []store.Item {
	items := make([]store.Item, n)
	for i := range items {
		v := make(vec.Vector, dim)
		for d := range v {
			v[d] = rng.Float64()
		}
		items[i] = store.Item{ID: store.ItemID(i), Vec: v}
	}
	return items
}

// BenchmarkPlan exercises the full approximation scan over a many-page
// VA-file, whose output ordering runs through engine.SortPlan.
func BenchmarkPlan(b *testing.B) {
	const dim, nItems = 8, 8192
	rng := rand.New(rand.NewSource(2))
	items := benchItems(rng, nItems, dim)
	e, err := New(items, Config{PageCapacity: 4})
	if err != nil {
		b.Fatal(err)
	}
	q := make(vec.Vector, dim)
	for d := range q {
		q[d] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refs := e.Prepare(q).Plan(0.4)
		benchSinkRefs = len(refs)
	}
}

// BenchmarkSweep is what one query costs the engines_lowdim workload's
// VA-file before any page is read: a handle, the cell tables, one sweep of
// 20 000 × 8-d approximations, then the probes the processor makes — a
// MinDist of every page and a plan — as array reads. The lone
// arm prepares each query alone, the block arms prepare that many together
// (PrepareBlock: one pass per four queries, a short remainder swept alone)
// with each lane-pass body the build and the CPU run; ns/query compares
// them.
func BenchmarkSweep(b *testing.B) {
	const dim, nItems = 8, 20000
	items := benchItems(rand.New(rand.NewSource(3)), nItems, dim)
	e, err := New(items, Config{})
	if err != nil {
		b.Fatal(err)
	}
	type arm struct {
		name  string
		block int
		asm   bool
	}
	arms := []arm{{"lone", 1, false}}
	for _, asm := range laneBodies() {
		for _, block := range []int{1, 2, 3, 4, 16} {
			arms = append(arms, arm{fmt.Sprintf("%s/block=%d", bodyName(asm), block), block, asm})
		}
	}
	for _, a := range arms {
		block := a.block
		e.asm = a.asm
		b.Run(a.name, func(b *testing.B) {
			qs, pqs := make([]vec.Vector, block), make([]engine.PreparedQuery, block)
			var sink float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range qs {
					qs[j] = items[(i*block+j)%nItems].Vec
				}
				if a.name == "lone" {
					pqs[0] = e.Prepare(qs[0])
				} else {
					e.PrepareBlock(qs, pqs)
				}
				for _, pq := range pqs {
					for pid := 0; pid < e.NumPages(); pid++ {
						sink += pq.MinDist(store.PageID(pid))
					}
					benchSinkRefs = len(pq.Plan(0.3))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*block), "ns/query")
			_ = sink
		})
	}
}

var benchSinkRefs int
