package metricdb

// The benchmark suite regenerates every table and figure of the paper's
// evaluation (§6) at benchmark scale and reports the paper's metrics as
// custom benchmark outputs:
//
//	BenchmarkDistanceVsComparison — the §6.2 micro-measurement (52x / 155x)
//	BenchmarkFig7*  — avg I/O cost (pages/query) vs m
//	BenchmarkFig8*  — avg CPU cost (distance calcs/query) vs m
//	BenchmarkFig9*  — avg total priced cost (ms/query) vs m
//	BenchmarkFig10* — speed-up of the multi-query vs single queries
//	BenchmarkFig11* — parallel speed-up vs s (m scaled to 100·s)
//	BenchmarkFig12* — overall speed-up vs sequential single queries
//	BenchmarkAblation* — design-choice ablations from DESIGN.md §5
//
// Run with: go test -bench=. -benchmem
// For tables at paper proportions use: go run ./cmd/msqbench -scale medium

import (
	"fmt"
	"sync"
	"testing"

	"metricdb/internal/cost"
	"metricdb/internal/dataset"
	"metricdb/internal/engines"
	"metricdb/internal/experiments"
	"metricdb/internal/msq"
	"metricdb/internal/parallel"
	"metricdb/internal/vec"
)

// benchScale keeps a full -bench=. run in the minutes range.
func benchScale() experiments.Scale {
	sc := experiments.SmallScale()
	sc.AstroN = 10000
	sc.ImageN = 8000
	sc.MValues = []int{1, 10, 100}
	sc.ServerCounts = []int{1, 4, 16}
	sc.BaseM = 50
	return sc
}

// workloads are built once; X-tree construction is cached inside the maker.
var (
	benchOnce  sync.Once
	benchAstro experiments.Workload
	benchImage experiments.Workload
	benchErr   error
)

func benchWorkloads(b *testing.B) (experiments.Workload, experiments.Workload) {
	b.Helper()
	benchOnce.Do(func() {
		sc := benchScale()
		benchAstro = experiments.Astronomy(sc)
		benchImage, benchErr = experiments.Image(sc)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchAstro, benchImage
}

// BenchmarkDistanceVsComparison reproduces the §6.2 micro-measurement: the
// CPU cost of one Euclidean distance at 20 and 64 dimensions versus one
// triangle-inequality comparison. The paper reports ratios of 52 and 155 on
// a Pentium II; the ratio (reported as the custom metric dist/compare) is
// hardware-dependent but must be large and grow with dimension.
func BenchmarkDistanceVsComparison(b *testing.B) {
	for _, dim := range []int{20, 64} {
		b.Run(fmt.Sprintf("distance-%dd", dim), func(b *testing.B) {
			x := make(vec.Vector, dim)
			y := make(vec.Vector, dim)
			for i := range x {
				x[i] = float64(i)
				y[i] = float64(dim - i)
			}
			m := vec.Euclidean{}
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += m.Distance(x, y)
			}
			_ = sink
			b.ReportMetric(cost.MeasureDistanceNs(m, dim)/cost.MeasureCompareNs(), "dist/compare")
		})
	}
	b.Run("triangle-compare", func(b *testing.B) {
		d, mij, qd := 1.5, 0.25, 1.0
		hits := 0
		for i := 0; i < b.N; i++ {
			if d-mij > qd || mij-d > qd {
				hits++
			}
			d += 1e-9
		}
		_ = hits
	})
}

// sweepBench runs the m-sweep for one figure metric over both workloads and
// engines, reporting the metric per m value.
func sweepBench(b *testing.B, metric func(experiments.Measurement) float64, unit string) {
	astro, image := benchWorkloads(b)
	sc := benchScale()
	for _, w := range []experiments.Workload{astro, image} {
		model := cost.PaperModel(w.Dim)
		queries, err := w.Queries(1234, maxInt(sc.MValues))
		if err != nil {
			b.Fatal(err)
		}
		for _, mk := range []experiments.EngineMaker{experiments.ScanMaker(w), experiments.XTreeMaker(w)} {
			for _, m := range sc.MValues {
				b.Run(fmt.Sprintf("%s/%s/m=%d", w.Name, mk.Name, m), func(b *testing.B) {
					var last experiments.Measurement
					for i := 0; i < b.N; i++ {
						meas, err := experiments.RunBlocks(mk, queries, m, model, msq.AvoidBoth)
						if err != nil {
							b.Fatal(err)
						}
						last = meas
					}
					b.ReportMetric(metric(last), unit)
				})
			}
		}
	}
}

// BenchmarkFig7IOCost reports the average I/O cost per similarity query in
// pages, per workload, engine and block size m (Figure 7).
func BenchmarkFig7IOCost(b *testing.B) {
	sweepBench(b, experiments.Measurement.PagesPerQuery, "pages/query")
}

// BenchmarkFig8CPUCost reports the average CPU cost per similarity query in
// distance calculations (Figure 8).
func BenchmarkFig8CPUCost(b *testing.B) {
	sweepBench(b, experiments.Measurement.DistCalcsPerQuery, "dist/query")
}

// BenchmarkFig9TotalCost reports the average priced total cost per query in
// milliseconds under the paper's hardware model (Figure 9).
func BenchmarkFig9TotalCost(b *testing.B) {
	sweepBench(b, func(m experiments.Measurement) float64 {
		return m.CostPerQuery() * 1000
	}, "ms/query")
}

// BenchmarkFig10Speedup reports the speed-up of processing queries as one
// multiple similarity query of size m versus m single queries (Figure 10).
func BenchmarkFig10Speedup(b *testing.B) {
	astro, image := benchWorkloads(b)
	sc := benchScale()
	for _, w := range []experiments.Workload{astro, image} {
		model := cost.PaperModel(w.Dim)
		queries, err := w.Queries(1234, maxInt(sc.MValues))
		if err != nil {
			b.Fatal(err)
		}
		for _, mk := range []experiments.EngineMaker{experiments.ScanMaker(w), experiments.XTreeMaker(w)} {
			base, err := experiments.RunBlocks(mk, queries, 1, model, msq.AvoidBoth)
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range sc.MValues[1:] {
				b.Run(fmt.Sprintf("%s/%s/m=%d", w.Name, mk.Name, m), func(b *testing.B) {
					var speedup float64
					for i := 0; i < b.N; i++ {
						meas, err := experiments.RunBlocks(mk, queries, m, model, msq.AvoidBoth)
						if err != nil {
							b.Fatal(err)
						}
						speedup = base.CostPerQuery() / meas.CostPerQuery()
					}
					b.ReportMetric(speedup, "speedup")
				})
			}
		}
	}
}

// parallelBench runs the s-sweep of Figures 11 and 12 and reports both
// speed-ups per server count.
func parallelBench(b *testing.B, fig11 bool) {
	astro, _ := benchWorkloads(b)
	sc := benchScale()
	model := cost.PaperModel(astro.Dim)
	for _, kind := range []engines.Kind{engines.Scan, engines.XTree} {
		name := "scan"
		if kind == engines.XTree {
			name = "xtree"
		}
		b.Run(name, func(b *testing.B) {
			var sweep *experiments.ParallelSweep
			for i := 0; i < b.N; i++ {
				sw, err := experiments.RunParallelSweep(astro, sc, kind, model)
				if err != nil {
					b.Fatal(err)
				}
				sweep = sw
			}
			fig := sweep.Fig12()
			if fig11 {
				fig = sweep.Fig11()
			}
			for i, s := range sc.ServerCounts {
				b.ReportMetric(fig.Series[0].Y[i], fmt.Sprintf("speedup@s=%d", s))
			}
		})
	}
}

// BenchmarkFig11ParallelSpeedup reports the parallelization speed-up per
// query versus the sequential multiple similarity query, with m scaled to
// BaseM·s (Figure 11).
func BenchmarkFig11ParallelSpeedup(b *testing.B) { parallelBench(b, true) }

// BenchmarkFig12OverallSpeedup reports the overall speed-up versus
// sequential single queries — the combined multi-query and parallelization
// effect (Figure 12).
func BenchmarkFig12OverallSpeedup(b *testing.B) { parallelBench(b, false) }

// BenchmarkAblationAvoidance isolates §5.2: the same multi-query workload
// with the triangle-inequality avoidance off, with each lemma alone, and
// with both (DESIGN.md ablation).
func BenchmarkAblationAvoidance(b *testing.B) {
	astro, _ := benchWorkloads(b)
	model := cost.PaperModel(astro.Dim)
	queries, err := astro.Queries(77, 100)
	if err != nil {
		b.Fatal(err)
	}
	mk := experiments.ScanMaker(astro)
	for _, mode := range []msq.AvoidanceMode{msq.AvoidOff, msq.AvoidLemma1, msq.AvoidLemma2, msq.AvoidBoth} {
		b.Run(mode.String(), func(b *testing.B) {
			var last experiments.Measurement
			for i := 0; i < b.N; i++ {
				meas, err := experiments.RunBlocks(mk, queries, 100, model, mode)
				if err != nil {
					b.Fatal(err)
				}
				last = meas
			}
			b.ReportMetric(last.DistCalcsPerQuery(), "dist/query")
			b.ReportMetric(float64(last.Stats.Avoided), "avoided")
		})
	}
}

// BenchmarkAblationIncremental compares incremental evaluation (queries
// arrive dynamically, answers prefetched into the session buffer — the
// ExploreNeighborhoods pattern of §5.1) against evaluating each query
// completely on arrival.
func BenchmarkAblationIncremental(b *testing.B) {
	astro, _ := benchWorkloads(b)
	items := astro.Items
	db, err := Open(items, Options{Engine: EngineXTree})
	if err != nil {
		b.Fatal(err)
	}
	// A dependent stream: each query's answers spawn the next queries.
	stream := func(process func(batch []Query) ([][]Answer, error)) (int64, error) {
		db.ResetCounters()
		var queue []Query
		seen := map[uint64]bool{}
		push := func(id ItemID) {
			if !seen[uint64(id)] {
				seen[uint64(id)] = true
				queue = append(queue, Query{ID: uint64(id), Vec: items[id].Vec, Type: KNNQuery(10)})
			}
		}
		push(0)
		for steps := 0; len(queue) > 0 && steps < 60; steps++ {
			m := len(queue)
			if m > 20 {
				m = 20
			}
			res, err := process(queue[:m])
			if err != nil {
				return 0, err
			}
			head := res[0]
			queue = queue[1:]
			for _, a := range head[:3] {
				push(a.ID)
			}
		}
		return db.IOStats().Reads, nil
	}

	b.Run("incremental", func(b *testing.B) {
		var pages int64
		for i := 0; i < b.N; i++ {
			batch := db.NewBatch()
			p, err := stream(func(qs []Query) ([][]Answer, error) {
				res, _, err := batch.Query(qs)
				return res, err
			})
			if err != nil {
				b.Fatal(err)
			}
			pages = p
		}
		b.ReportMetric(float64(pages), "pages")
	})
	b.Run("non-incremental", func(b *testing.B) {
		var pages int64
		for i := 0; i < b.N; i++ {
			p, err := stream(func(qs []Query) ([][]Answer, error) {
				// Complete every query of the batch on arrival, with no
				// cross-call buffering.
				res, _, err := db.NewBatch().QueryAll(qs)
				return res, err
			})
			if err != nil {
				b.Fatal(err)
			}
			pages = p
		}
		b.ReportMetric(float64(pages), "pages")
	})
}

// BenchmarkAblationDecluster compares declustering strategies for the
// parallel query processor (the paper's future-work topic).
func BenchmarkAblationDecluster(b *testing.B) {
	astro, _ := benchWorkloads(b)
	queries, err := astro.Queries(99, 200)
	if err != nil {
		b.Fatal(err)
	}
	for _, strategy := range []parallel.Strategy{parallel.RoundRobin, parallel.RandomAssign, parallel.RangePartition} {
		b.Run(strategy.String(), func(b *testing.B) {
			var maxPages int64
			for i := 0; i < b.N; i++ {
				cluster, err := parallel.New(astro.Items, parallel.Config{
					Servers: 4, Strategy: strategy, Seed: 5,
					Engine: engines.XTree, Dim: astro.Dim,
					PageCapacity: 195, BufferPages: -1,
				})
				if err != nil {
					b.Fatal(err)
				}
				_, rep, err := cluster.MultiQueryAll(queries)
				if err != nil {
					b.Fatal(err)
				}
				maxPages = rep.MaxPagesRead()
			}
			b.ReportMetric(float64(maxPages), "busiest-pages")
		})
	}
}

// BenchmarkXTreeBuild measures dynamic X-tree construction throughput.
func BenchmarkXTreeBuild(b *testing.B) {
	items := dataset.Uniform(3, 5000, 16)
	vectors := make([]Vector, len(items))
	for i := range items {
		vectors[i] = items[i].Vec
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(NewItems(vectors), Options{Engine: EngineXTree, PageCapacity: 32}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(items)), "items/build")
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// BenchmarkVAFileVsScan compares the VA-file's two-phase processing against
// the plain scan and the X-tree for single 10-NN queries (an extension
// beyond the paper's two engines).
func BenchmarkVAFileVsScan(b *testing.B) {
	astro, _ := benchWorkloads(b)
	queries, err := astro.Queries(88, 30)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []EngineKind{EngineScan, EngineVAFile, EngineXTree} {
		b.Run(string(kind), func(b *testing.B) {
			db, err := Open(astro.Items, Options{Engine: kind, PageCapacity: 64})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer() // ns/op is the queries', not the build's
			var pages, dists int64
			for i := 0; i < b.N; i++ {
				db.ResetCounters()
				var total Stats
				for _, q := range queries {
					_, st, err := db.Query(q.Vec, q.Type)
					if err != nil {
						b.Fatal(err)
					}
					total = total.Add(st)
				}
				pages = total.PagesRead
				dists = total.DistCalcs
			}
			b.ReportMetric(float64(pages)/float64(len(queries)), "pages/query")
			b.ReportMetric(float64(dists)/float64(len(queries)), "dist/query")
		})
	}
}
