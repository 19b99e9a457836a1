package msq

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"metricdb/internal/engine"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// autoMetrics lists every metric kind AvoidAuto distinguishes, with the
// mode it must resolve to: the five metrics with a native early-abandoning
// kernel, the quadratic form (a full calculation), and a caller-supplied
// metric of unknown cost.
func autoMetrics(t *testing.T, dim int) []struct {
	m    vec.Metric
	want AvoidanceMode
} {
	t.Helper()
	mink, err := vec.NewMinkowski(3)
	if err != nil {
		t.Fatal(err)
	}
	w := make(vec.Vector, dim)
	for i := range w {
		w[i] = 0.5 + float64(i)
	}
	wgt, err := vec.NewWeightedEuclidean(w)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := vec.HistogramSimilarityMatrix(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	qf, err := vec.NewQuadraticForm(dim, hist)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		m    vec.Metric
		want AvoidanceMode
	}{
		{vec.Euclidean{}, AvoidOff}, {vec.Manhattan{}, AvoidOff}, {vec.Chebyshev{}, AvoidOff},
		{mink, AvoidOff}, {wgt, AvoidOff},
		{qf, AvoidBoth}, {fullOnly{vec.Manhattan{}}, AvoidBoth},
	}
}

// TestDifferentialAvoidAuto: the default mode is not a fourth behaviour. On
// every engine, page materialization and disk backend a processor built
// with AvoidAuto is indistinguishable — answers, the full
// Stats record, disk statistics, buffer hits — from one built with the
// explicit mode the rule names for its metric.
func TestDifferentialAvoidAuto(t *testing.T) {
	const dim = 4
	items := testDB(61, 300, dim)
	queries := diffBatch(dim, 62)
	backends := []struct {
		name   string
		makers []diffMaker
	}{
		{"memory/aos", diffMakers()},
		{"memory/soa", contiguousMakers()},
		{"file/aos", fileDiskMakers(false)},
		{"file/soa", fileDiskMakers(true)},
	}
	for _, be := range backends {
		for _, mk := range be.makers {
			for _, mt := range autoMetrics(t, dim) {
				t.Run(fmt.Sprintf("%s/%s/%s", be.name, mk.name, mt.m.Name()), func(t *testing.T) {
					explicit := runDifferential(t, mk, mt.m, mt.want, 1, items, dim, queries)
					auto := runDifferential(t, mk, mt.m, AvoidAuto, 1, items, dim, queries)
					requireSameRun(t, fmt.Sprintf("auto vs %v", mt.want), explicit, auto)
				})
			}
		}
	}
}

// bodyRun is everything one page-pass body did to a batch over a whole
// dataset.
type bodyRun struct {
	answers [][]query.Answer
	counts  passCounts
	limits  [][]float64 // the pruning distances after each page
	prof    [][3]int64  // per batch position: calculated, abandoned, tries
}

// refPairs is the reference the vector bodies are held to: the begun page
// pair by pair, item-major, one scalar DistanceWithin each under the
// query's limit of the moment — Figure 4's inner loops with nothing
// between them and the kernel, each accept landing in its list at once. It
// updates the limits and the EXPLAIN counters and returns the counts
// exactly as a body does.
func refPairs(p *pagePass) passCounts {
	kernel := p.s.proc.metric.Kernel()
	var c passCounts
	for it := range p.page.Items {
		item := &p.page.Items[it]
		for a, st := range p.active {
			d, within := kernel.DistanceWithin(st.q.Vec, item.Vec, p.limits[a])
			c.calcs++
			if p.prof != nil {
				p.prof[st.pos].calculated(within, 0)
			}
			switch {
			case !within:
				c.abandoned++
			case st.answers.Consider(item.ID, d):
				p.limits[a] = st.queryDist()
			}
		}
	}
	return c
}

// evalBody runs the begun page through body, whatever rowPath picked for it;
// bodyPairs stands for the reference (evalPairs itself runs only under the
// lemmas).
func evalBody(p *pagePass, body passBody) passCounts {
	switch body {
	case bodyRows:
		p.rowSet.Load(p.qvecs, p.limits)
		return p.evalRows()
	case bodyItems:
		return p.evalItems()
	}
	return refPairs(p)
}

// runBody drives one body over every page of eng for the whole batch, the
// way Session.run drives it over a scan: begin, eval, next page. body picks
// the body regardless of rowPath, bodyPairs standing for the reference
// (evalPairs itself runs only under the lemmas).
func runBody(t *testing.T, eng interface {
	NumPages() int
	ReadPage(store.PageID) (*store.Page, error)
}, proc *Processor, queries []Query, body passBody) bodyRun {
	t.Helper()
	s := proc.NewSession()
	s.explain = newExplainState(len(queries))
	states, results, err := s.prepare(queries)
	if err != nil {
		t.Fatal(err)
	}
	pass := s.pagePass(len(states), nil)
	var r bodyRun
	for pid := 0; pid < eng.NumPages(); pid++ {
		page, err := eng.ReadPage(store.PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		pass.begin(page, states)
		c := evalBody(pass, body)
		r.counts.calcs += c.calcs
		r.counts.abandoned += c.abandoned
		r.counts.tries += c.tries
		r.counts.avoided += c.avoided
		r.limits = append(r.limits, append([]float64(nil), pass.limits...))
	}
	for _, l := range results {
		r.answers = append(r.answers, append([]query.Answer(nil), l.Answers()...))
	}
	for i := range s.explain.prof {
		c := &s.explain.prof[i]
		r.prof = append(r.prof, [3]int64{c.distCalcs, c.abandoned, c.tries})
	}
	return r
}

// sameFloats compares bit patterns.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRowBodyMatchesPairBody: without the lemmas the two vector bodies are
// the pair-by-pair evaluation computed in another order — on every engine's
// pages, whether their items own their vectors or are rows of one slab,
// for every metric, whether a range query's accepts are deferred to the
// page's end (staged, the default) or each lands at once (perAccept): the
// same answers, calculation and abandonment counts, pruning distances after
// every page and per-position EXPLAIN counters. The widths are the item
// body's (1, 2, 3), then straddle the row kernel's eight-lane block (4 and
// 5: one block, mostly padding; 9: a full block and a second with one
// query); both bodies run at every width, whatever rowPath would pick. The
// degenerate inputs put a limit, a distance or an answer count on a
// boundary: k larger than the database, ε = 0 at an item's own position,
// identical items, one vector under several IDs.
func TestRowBodyMatchesPairBody(t *testing.T) {
	const dim, n = 4, 90
	items := testDB(63, n, dim)
	same := make([]store.Item, n)
	for i := range same {
		same[i] = store.Item{ID: store.ItemID(i), Vec: vec.Vector{0.5, 0.25, 0.75, 0.5}}
	}
	types := []query.Type{
		query.NewKNN(5), query.NewRange(0.45), query.NewBoundedKNN(4, 0.6), query.NewKNN(1),
		query.NewRange(0.2), query.NewKNN(12), query.NewKNN(3), query.NewRange(0.7), query.NewKNN(8),
	}
	mixed := func(m int) []Query {
		qs := diffBatch(dim, int64(64+m))
		for len(qs) < m {
			qs = append(qs, diffBatch(dim, int64(164+len(qs)))...)
		}
		qs = qs[:m]
		for i := range qs {
			qs[i].ID, qs[i].Type = uint64(i), types[i]
		}
		return qs
	}
	at := func(its []store.Item, types ...query.Type) []Query {
		qs := make([]Query, len(types))
		for i, ty := range types {
			qs[i] = Query{ID: uint64(i), Vec: its[(7*i)%len(its)].Vec, Type: ty}
		}
		return qs
	}
	cases := []struct {
		name    string
		items   []store.Item
		queries []Query
	}{
		{"m=1", items, mixed(1)}, {"m=2", items, mixed(2)}, {"m=1-range", items, mixed(2)[1:]},
		{"m=3", items, mixed(3)}, {"m=4", items, mixed(4)}, {"m=5", items, mixed(5)}, {"m=9", items, mixed(9)},
		{"k>n", items, at(items, query.NewKNN(n+5), query.NewKNN(2*n), query.NewBoundedKNN(n+1, 10), query.NewKNN(n+1), query.NewKNN(n))},
		{"eps=0", items, at(items, query.NewRange(0), query.NewRange(0), query.NewBoundedKNN(5, 0), query.NewRange(0), query.NewRange(0))},
		{"identical-items", same, at(same, query.NewRange(0), query.NewKNN(n), query.NewBoundedKNN(n, 0), query.NewRange(5), query.NewKNN(n+1))},
		{"duplicate-queries", items, at(items[:1], query.NewKNN(n), query.NewKNN(7), query.NewRange(10), query.NewBoundedKNN(n, 10), query.NewKNN(7))},
	}
	layouts := []struct {
		name   string
		makers []diffMaker
	}{{"aos", diffMakers()}, {"soa", contiguousMakers()}}

	for _, tc := range cases {
		for _, lay := range layouts {
			for _, mk := range lay.makers {
				for _, mt := range autoMetrics(t, dim) {
					for _, deferred := range []bool{false, true} {
						pages := lay.name // the scan's pages, or "<layout>-<engine>"
						if mk.name != "scan" {
							pages += "-" + mk.name
						}
						t.Run(fmt.Sprintf("%s/%s/%s/deferred=%v", tc.name, pages, mt.m.Name(), deferred), func(t *testing.T) {
							eng := mk.make(t, tc.items, dim, mt.m)
							proc, err := New(eng, mt.m, Options{Avoidance: AvoidOff})
							if err != nil {
								t.Fatal(err)
							}
							proc.perAccept = !deferred
							pairs := runBody(t, eng, proc, tc.queries, bodyPairs)
							for name, body := range map[string]passBody{"rows": bodyRows, "items": bodyItems} {
								requireSameBody(t, name, pairs, runBody(t, eng, proc, tc.queries, body))
							}
							if len(pairs.answers[0]) == 0 {
								t.Error("the pass produced no answers: the comparison is vacuous")
							}
						})
					}
				}
			}
		}
	}
}

// requireSameBody holds one vector body's run to the reference's.
func requireSameBody(t *testing.T, name string, pairs, got bodyRun) {
	t.Helper()
	if diag, ok := identicalAnswers(pairs.answers, got.answers); !ok {
		t.Errorf("%s: answers differ: %s", name, diag)
	}
	if got.counts != pairs.counts {
		t.Errorf("counts: %s %+v, pairs %+v", name, got.counts, pairs.counts)
	}
	for p := range pairs.limits {
		if !sameFloats(pairs.limits[p], got.limits[p]) {
			t.Fatalf("page %d: pruning distances: %s %v, pairs %v", p, name, got.limits[p], pairs.limits[p])
		}
	}
	for i := range pairs.prof {
		if got.prof[i] != pairs.prof[i] {
			t.Errorf("position %d: EXPLAIN counters (calculated, abandoned, tries): %s %v, pairs %v",
				i, name, got.prof[i], pairs.prof[i])
		}
	}
}

// TestSingleMatchesScalarLoop holds SingleContext, which sweeps each page
// through the item-lane kernel, to Figure 1 written out with one scalar
// DistanceWithin per item: the same answers, pages visited, calculations and
// abandonments, on every engine and metric, for k-NN, range and bounded
// k-NN, on pages shorter than a sweep tile and on pages several tiles long.
func TestSingleMatchesScalarLoop(t *testing.T) {
	const dim, n = 4, 330
	items := testDB(65, n, dim)
	makers := append(diffMakers(), diffMaker{"scan-long-pages",
		func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := scan.NewWithConfig(items, scan.Config{PageCapacity: 3*sweepTile + 5, BufferPages: 2})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}})
	types := []query.Type{query.NewKNN(1), query.NewKNN(7), query.NewRange(0.3), query.NewBoundedKNN(4, 0.5), query.NewKNN(n + 1), query.NewRange(0)}
	for _, mk := range makers {
		for _, mt := range autoMetrics(t, dim) {
			t.Run(mk.name+"/"+mt.m.Name(), func(t *testing.T) {
				eng := mk.make(t, items, dim, mt.m)
				proc, err := New(eng, mt.m, Options{})
				if err != nil {
					t.Fatal(err)
				}
				kernel := proc.metric.Kernel()
				for i, typ := range types {
					q := items[(37*i)%n].Vec
					if i%2 == 1 {
						q = diffBatch(dim, int64(66+i))[0].Vec
					}
					want := query.NewAnswerList(typ)
					var ws Stats
					for _, ref := range eng.Prepare(q).Plan(typ.InitialQueryDist()) {
						if ref.MinDist > want.QueryDist() {
							break
						}
						page, err := eng.ReadPage(ref.ID)
						if err != nil {
							t.Fatal(err)
						}
						ws.PageVisits++
						for _, it := range page.Items {
							d, within := kernel.DistanceWithin(q, it.Vec, want.QueryDist())
							ws.DistCalcs++
							if within {
								want.Consider(it.ID, d)
							} else {
								ws.PartialAbandoned++
							}
						}
						eng.Pager().Release(page)
					}
					got, gs, err := proc.Single(q, typ)
					if err != nil {
						t.Fatal(err)
					}
					if diag, ok := identicalAnswers([][]query.Answer{want.Answers()}, [][]query.Answer{got.Answers()}); !ok {
						t.Errorf("%v: answers differ: %s", typ, diag)
					}
					if gs.PageVisits != ws.PageVisits || gs.DistCalcs != ws.DistCalcs || gs.PartialAbandoned != ws.PartialAbandoned {
						t.Errorf("%v: visits/calcs/abandoned %d/%d/%d, scalar loop %d/%d/%d", typ,
							gs.PageVisits, gs.DistCalcs, gs.PartialAbandoned, ws.PageVisits, ws.DistCalcs, ws.PartialAbandoned)
					}
				}
			})
		}
	}
}

// TestRankingMatchesScalarLoop holds Ranking.Next, which sweeps each page it
// loads through the item-lane kernel under an infinite limit, to the loop it
// replaced — one scalar Distance per item pushed on the heap — on every
// engine and metric, in memory and over a FileDisk: the same objects in the
// same order with the same distance bits, the same Stats, and the same
// calculations (none abandoned) on the processor's counting metric.
func TestRankingMatchesScalarLoop(t *testing.T) {
	const dim, n = 4, 150
	items := testDB(67, n, dim)
	backends := map[string][]diffMaker{"memory": diffMakers(), "filedisk": fileDiskMakers(false)}
	for backend, makers := range backends {
		for _, mk := range makers {
			for _, mt := range autoMetrics(t, dim) {
				t.Run(backend+"/"+mk.name+"/"+mt.m.Name(), func(t *testing.T) {
					eng := mk.make(t, items, dim, mt.m)
					proc, err := New(eng, mt.m, Options{})
					if err != nil {
						t.Fatal(err)
					}
					for i, q := range []vec.Vector{items[11].Vec, diffBatch(dim, 68)[0].Vec} {
						var want answerHeap
						var ws Stats
						var order []query.Answer
						plan := eng.Prepare(q).Plan(query.NewKNN(1).InitialQueryDist())
						for next := 0; ; {
							if len(want) > 0 && (next >= len(plan) || want[0].Dist <= plan[next].MinDist) {
								order = append(order, heap.Pop(&want).(query.Answer))
								continue
							}
							if next >= len(plan) {
								break
							}
							page, err := eng.ReadPage(plan[next].ID)
							if err != nil {
								t.Fatal(err)
							}
							next++
							ws.PagesRead++
							ws.PageVisits++
							for _, it := range page.Items {
								ws.DistCalcs++
								heap.Push(&want, query.Answer{ID: it.ID, Dist: mt.m.Distance(q, it.Vec)})
							}
							eng.Pager().Release(page)
						}

						calcs, abandoned := proc.metric.Count(), proc.metric.Abandoned()
						r, err := proc.Ranking(q)
						if err != nil {
							t.Fatal(err)
						}
						var got []query.Answer
						for {
							a, ok, err := r.Next()
							if err != nil {
								t.Fatal(err)
							}
							if !ok {
								break
							}
							got = append(got, a)
						}
						if diag, ok := identicalAnswers([][]query.Answer{order}, [][]query.Answer{got}); !ok || len(got) != n {
							t.Fatalf("query %d: %d objects ranked, want %d in the scalar loop's order: %s", i, len(got), n, diag)
						}
						for j := range got {
							if math.Float64bits(got[j].Dist) != math.Float64bits(order[j].Dist) {
								t.Fatalf("query %d rank %d: distance bits %#x, scalar loop %#x", i, j, math.Float64bits(got[j].Dist), math.Float64bits(order[j].Dist))
							}
						}
						if gs := r.Stats(); gs != ws {
							t.Errorf("query %d: stats %+v, scalar loop %+v", i, gs, ws)
						}
						if c, a := proc.metric.Count()-calcs, proc.metric.Abandoned()-abandoned; c != ws.DistCalcs || a != 0 {
							t.Errorf("query %d: the metric counted %d calculations, %d abandoned; want %d, 0", i, c, a, ws.DistCalcs)
						}
					}
				})
			}
		}
	}
}
