package vec

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// Microbenchmarks for the bounded distance kernels: full Distance against
// DistanceWithin at several abandon rates. The limit for a target rate is
// the matching quantile of the benchmark pairs' distance distribution, so
// "abandon=95" means ~95% of evaluations abandon mid-vector — the regime
// the multi-query hot path lives in, where most offered items are far
// outside the pruning bound. abandon=0 uses an infinite limit and measures
// the kernel's bookkeeping overhead when the bound never helps.

var (
	benchSinkF float64
	benchSinkB bool
)

type benchPair struct{ a, b Vector }

func benchPairs(dim, n int, seed int64) []benchPair {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]benchPair, n)
	for i := range pairs {
		pairs[i] = benchPair{randomVector(rng, dim), randomVector(rng, dim)}
	}
	return pairs
}

// limitForRate returns the distance quantile such that about rate of the
// pairs abandon (their distance exceeds the limit). rate 0 returns +Inf.
func limitForRate(m Metric, pairs []benchPair, rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	ds := make([]float64, len(pairs))
	for i, p := range pairs {
		ds[i] = m.Distance(p.a, p.b)
	}
	sort.Float64s(ds)
	idx := int(float64(len(ds)) * (1 - rate))
	if idx >= len(ds) {
		idx = len(ds) - 1
	}
	return ds[idx]
}

func benchKernelMetrics(b *testing.B, dim int) []Metric {
	rng := rand.New(rand.NewSource(99))
	return boundedTestMetrics(b, dim, rng)[:6] // drop the quadratic-form fallback
}

func BenchmarkDistanceFull(b *testing.B) {
	for _, dim := range []int{4, 16, 64} {
		pairs := benchPairs(dim, 256, int64(dim))
		for _, m := range benchKernelMetrics(b, dim) {
			b.Run(fmt.Sprintf("%s/dim=%d", m.Name(), dim), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := pairs[i&255]
					benchSinkF = m.Distance(p.a, p.b)
				}
			})
		}
	}
}

func BenchmarkDistanceWithin(b *testing.B) {
	for _, dim := range []int{4, 16, 64} {
		pairs := benchPairs(dim, 256, int64(dim))
		for _, m := range benchKernelMetrics(b, dim) {
			for _, rate := range []float64{0, 0.5, 0.95} {
				limit := limitForRate(m, pairs, rate)
				b.Run(fmt.Sprintf("%s/dim=%d/abandon=%d", m.Name(), dim, int(rate*100)), func(b *testing.B) {
					b.ReportAllocs()
					bm := m.(BoundedMetric)
					for i := 0; i < b.N; i++ {
						p := pairs[i&255]
						benchSinkF, benchSinkB = bm.DistanceWithin(p.a, p.b, limit)
					}
				})
			}
		}
	}
}

// BenchmarkRowKernel prices one (query, item) pair of the Euclidean page
// pass: one scalar DistanceWithin per pair, then the loaded rows by the
// portable body and by each screen body (avx2, avx512) the build and the
// CPU have, screening tiles of 32 items and resolving the live ones, as
// evalRows does. Every query carries the same limit, the quantile of the
// pairs' distances at which the named share of them abandons; 0.998 is
// what the scan batch of the benchmark runs at. m = 8 is one block, m = 100 is
// thirteen — the scan batch's width. Two more cells at the scan batch's
// abandon share: tile=1, one item a screen (Sweep, what the benchmark
// module's row probe calls), and offset=1e6, the coordinates moved a
// million from the origin, where the screen's error bound works only
// because it centres them.
func BenchmarkRowKernel(b *testing.B) {
	const nItems = 1024
	type cell struct {
		dim, m int
		share  float64
		tile   int
		offset float64
	}
	var cells []cell
	for _, dim := range []int{8, 20} {
		for _, m := range []int{8, 16, 100} {
			for _, share := range []float64{0, 0.95, 0.998} {
				cells = append(cells, cell{dim, m, share, 32, 0})
			}
		}
	}
	cells = append(cells, cell{20, 100, 0.998, 1, 0}, cell{8, 16, 0.998, 1, 0}, cell{8, 16, 0.998, 32, 1e6})
	for _, c := range cells {
		rng := rand.New(rand.NewSource(int64(c.dim)))
		point := func() Vector {
			v := randomVector(rng, c.dim)
			for d := range v {
				v[d] += c.offset
			}
			return v
		}
		items := make([]Vector, nItems)
		for i := range items {
			items[i] = point()
		}
		queries := make([]Vector, c.m)
		pairs := make([]benchPair, 0, c.m*nItems)
		for a := range queries {
			queries[a] = point()
			for _, it := range items {
				pairs = append(pairs, benchPair{queries[a], it})
			}
		}
		limit := limitForRate(Euclidean{}, pairs, c.share)
		limits := make([]float64, c.m)
		for a := range limits {
			limits[a] = limit
		}
		name := fmt.Sprintf("dim=%d/m=%d/abandon=%v", c.dim, c.m, c.share)
		switch {
		case c.offset != 0:
			name += fmt.Sprintf("/offset=%g", c.offset)
		case c.tile != 32:
			name += fmt.Sprintf("/tile=%d", c.tile)
		}
		perPair := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.m*nItems), "ns/pair")
		}
		if c.tile == 32 && c.offset == 0 {
			b.Run(name+"/scalar", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, it := range items {
						for _, q := range queries {
							benchSinkF, benchSinkB = euclideanWithin(q, it, limit)
						}
					}
				}
				perPair(b)
			})
		}
		for body := rowGo; body <= rowAVX512; body++ {
			if !body.runs() {
				continue
			}
			label := body.String()
			if body == rowGo {
				label = "portable"
			}
			b.Run(name+"/"+label, func(b *testing.B) {
				r := NewRows(Euclidean{})
				r.body = body
				r.Load(queries, limits)
				var sc RowScratch
				n := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for base := 0; base < nItems; base += c.tile {
						for live := r.Screen(items[base:base+c.tile], &sc); live != 0; live &= live - 1 {
							n += len(r.Resolve(bits.TrailingZeros64(live), &sc))
						}
					}
				}
				benchSinkF = float64(n)
				perPair(b)
			})
		}
	}
}

// BenchmarkItemKernel prices one (query, item) pair of a one-query sweep
// three ways: one scalar DistanceWithin per item, and tiles of 32 items —
// swept where they lie, the way the page pass sweeps its page, and resolved
// through the set bits of the mask — through the portable body and through
// the assembly where the build and the CPU have it. The limit is fixed at
// the quantile of the distances at which the named share of the pairs
// abandons.
func BenchmarkItemKernel(b *testing.B) {
	const nItems, tile = 1024, 32
	type item struct {
		id  int
		vec Vector
	}
	for _, dim := range []int{8, 16, 20} {
		rng := rand.New(rand.NewSource(int64(dim)))
		items := make([]item, nItems)
		q := randomVector(rng, dim)
		pairs := make([]benchPair, nItems)
		for i := range items {
			items[i] = item{i, randomVector(rng, dim)}
			pairs[i] = benchPair{q, items[i].vec}
		}
		for _, share := range []float64{0, 0.95, 0.998} {
			limit := limitForRate(Euclidean{}, pairs, share)
			name := fmt.Sprintf("dim=%d/abandon=%v", dim, share)
			perPair := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nItems, "ns/pair")
			}
			b.Run(name+"/scalar", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j := range items {
						benchSinkF, benchSinkB = euclideanWithin(q, items[j].vec, limit)
					}
				}
				perPair(b)
			})
			for _, body := range []struct {
				name string
				asm  bool
			}{{"portable", false}, {"avx2", true}} {
				if body.asm && !haveAVX2 {
					continue
				}
				b.Run(name+"/"+body.name, func(b *testing.B) {
					k := &Items{asm: body.asm}
					itemVec := func(it *item) *Vector { return &it.vec }
					var dists [tile]float64
					n := 0
					for i := 0; i < b.N; i++ {
						for base := 0; base < nItems; base += tile {
							for m := SweepRecords(k, q, items[base:base+tile], itemVec, limit, dists[:]); m != 0; m &= m - 1 {
								if dists[bits.TrailingZeros64(m)] <= limit {
									n++
								}
							}
						}
					}
					benchSinkF = float64(n)
					perPair(b)
				})
			}
		}
	}
}

// BenchmarkBoxKernel prices one sweep of a directory node's child MBRs
// (MINDIST) three ways: the per-box loop over BoxGap that the X-tree's plan
// walked until the boxes became lanes, the portable branch-free body, and the
// assembly where the build and the CPU have it. 61 boxes of dimension 8 is
// the root of the benchmark's dbscan_xtree tree. The query changes with
// every sweep, as it does in a plan: against one fixed query the branch
// predictor learns BoxGap's branches and hides their cost.
func BenchmarkBoxKernel(b *testing.B) {
	for _, dim := range []int{8, 16} {
		for _, n := range []int{8, 61, 240} {
			rng := rand.New(rand.NewSource(int64(dim * n)))
			lo, hi := make([]Vector, n), make([]Vector, n)
			for i := range lo {
				lo[i], hi[i] = randomVector(rng, dim), randomVector(rng, dim)
				for d := range lo[i] {
					lo[i][d], hi[i][d] = min(lo[i][d], hi[i][d]), max(lo[i][d], hi[i][d])
				}
			}
			queries, dst := make([]Vector, 256), make([]float64, n)
			for i := range queries {
				queries[i] = randomVector(rng, dim)
			}
			name := fmt.Sprintf("dim=%d/n=%d", dim, n)
			perBox := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/box")
			}
			b.Run(name+"/scalar", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					q := queries[i&255]
					for j := range lo {
						var s float64
						for d, x := range q {
							g := BoxGap(x, lo[j][d], hi[j][d])
							s += g * g
						}
						dst[j] = math.Sqrt(s)
					}
				}
				perBox(b)
			})
			for _, body := range []struct {
				name string
				asm  bool
			}{{"portable", false}, {"avx2", true}} {
				if body.asm && !haveAVX2 {
					continue
				}
				b.Run(name+"/"+body.name, func(b *testing.B) {
					boxes := NewBoxes(Euclidean{}, lo, hi)
					boxes.asm = body.asm
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						boxes.Sweep(queries[i&255], 0, dst)
					}
					perBox(b)
				})
			}
		}
	}
}
