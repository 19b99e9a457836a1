package msq

import (
	"fmt"
	"math"
	"testing"

	"metricdb/internal/query"
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
// every engine, page materialization, disk backend and pipeline width a
// processor built with AvoidAuto is indistinguishable — answers, the full
// Stats record, disk statistics, buffer hits — from one built with the
// explicit mode the rule names for its metric.
func TestDifferentialAvoidAuto(t *testing.T) {
	const dim = 4
	items := testDB(61, 300, dim)
	queries := diffBatch(dim, 62)
	soa := store.ColumnSpec{Columnar: true}
	backends := []struct {
		name   string
		makers []diffMaker
	}{
		{"memory/aos", diffMakers()},
		{"memory/soa", layoutMakers(soa)},
		{"file/aos", fileDiskMakers(false, store.ColumnSpec{})},
		{"file/soa", fileDiskMakers(false, soa)},
	}
	for _, be := range backends {
		for _, mk := range be.makers {
			for _, mt := range autoMetrics(t, dim) {
				t.Run(fmt.Sprintf("%s/%s/%s", be.name, mk.name, mt.m.Name()), func(t *testing.T) {
					for _, width := range []int{1, 2, 8} {
						explicit := runDifferential(t, mk, mt.m, mt.want, width, items, dim, queries)
						auto := runDifferential(t, mk, mt.m, AvoidAuto, width, items, dim, queries)
						requireSameRun(t, fmt.Sprintf("width %d, auto vs %v", width, mt.want), explicit, auto)
					}
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
	out     [][]float64 // deferred passes only: each page's distance buffer
}

// runBody drives one body over every page of eng for the whole batch, the
// way Session.run drives it over a scan: begin, eval, next page. rows picks
// the body regardless of rowPath; deferred runs the pipeline's variant,
// which leaves the answer lists alone.
func runBody(t *testing.T, eng interface {
	NumPages() int
	ReadPage(store.PageID) (*store.Page, error)
}, proc *Processor, queries []Query, rows, deferred bool) bodyRun {
	t.Helper()
	s := proc.NewSession()
	s.explain = newExplainState(len(queries))
	states, results, err := s.prepare(queries)
	if err != nil {
		t.Fatal(err)
	}
	pass := s.pagePass(1, len(states), nil)
	var r bodyRun
	for pid := 0; pid < eng.NumPages(); pid++ {
		page, err := eng.ReadPage(store.PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		pass.begin(page, states)
		pass.loadRows() // whatever rowPath said
		var out []float64
		if deferred {
			out = make([]float64, len(page.Items)*len(states))
		}
		if rows {
			r.counts.add(pass.evalRows(0, len(page.Items), 0, out))
		} else {
			r.counts.add(pass.evalPairs(0, len(page.Items), 0, out))
		}
		r.limits = append(r.limits, append([]float64(nil), pass.limits...))
		if deferred {
			r.out = append(r.out, out)
		}
	}
	for _, l := range results {
		r.answers = append(r.answers, append([]query.Answer(nil), l.Answers()...))
	}
	for i := range s.explain.prof {
		c := &s.explain.prof[i]
		r.prof = append(r.prof, [3]int64{c.distCalcs.Load(), c.abandoned.Load(), c.tries.Load()})
	}
	return r
}

// sameFloats compares bit patterns, so that the skipped-slot NaNs of a
// deferred pass compare equal.
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

// TestRowBodyMatchesPairBody: without the lemmas the blocked row body is the
// pair body computed in another order — on pages whose items own their
// vectors as on columnar ones, for every metric's row body, live and
// deferred: the same answers, calculation and abandonment counts, pruning
// distances after every page, per-position EXPLAIN counters and deferred
// distance buffers. The widths straddle the row kernel's eight-lane block
// (3, 4 and 5: one block, mostly padding; 9: a full block and a second with
// one query), and the degenerate inputs put a limit, a distance or an
// answer count on a boundary: k larger than the database, ε = 0 at an
// item's own position, identical items, one vector under several IDs.
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
		{"m=3", items, mixed(3)}, {"m=4", items, mixed(4)}, {"m=5", items, mixed(5)}, {"m=9", items, mixed(9)},
		{"k>n", items, at(items, query.NewKNN(n+5), query.NewKNN(2*n), query.NewBoundedKNN(n+1, 10), query.NewKNN(n+1), query.NewKNN(n))},
		{"eps=0", items, at(items, query.NewRange(0), query.NewRange(0), query.NewBoundedKNN(5, 0), query.NewRange(0), query.NewRange(0))},
		{"identical-items", same, at(same, query.NewRange(0), query.NewKNN(n), query.NewBoundedKNN(n, 0), query.NewRange(5), query.NewKNN(n+1))},
		{"duplicate-queries", items, at(items[:1], query.NewKNN(n), query.NewKNN(7), query.NewRange(10), query.NewBoundedKNN(n, 10), query.NewKNN(7))},
	}
	layouts := []struct {
		name string
		spec store.ColumnSpec
	}{{"aos", store.ColumnSpec{}}, {"soa", store.ColumnSpec{Columnar: true}}}

	for _, tc := range cases {
		for _, lay := range layouts {
			for _, mt := range autoMetrics(t, dim) {
				for _, deferred := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/%s/deferred=%v", tc.name, lay.name, mt.m.Name(), deferred), func(t *testing.T) {
						eng := layoutMakers(lay.spec)[0].make(t, tc.items, dim, mt.m) // the scan
						proc, err := New(eng, mt.m, Options{Avoidance: AvoidOff})
						if err != nil {
							t.Fatal(err)
						}
						pairs := runBody(t, eng, proc, tc.queries, false, deferred)
						rows := runBody(t, eng, proc, tc.queries, true, deferred)
						if diag, ok := identicalAnswers(pairs.answers, rows.answers); !ok {
							t.Errorf("answers differ: %s", diag)
						}
						if rows.counts != pairs.counts {
							t.Errorf("counts: rows %+v, pairs %+v", rows.counts, pairs.counts)
						}
						for p := range pairs.limits {
							if !sameFloats(pairs.limits[p], rows.limits[p]) {
								t.Fatalf("page %d: pruning distances: rows %v, pairs %v", p, rows.limits[p], pairs.limits[p])
							}
						}
						for i := range pairs.prof {
							if rows.prof[i] != pairs.prof[i] {
								t.Errorf("position %d: EXPLAIN counters (calculated, abandoned, tries): rows %v, pairs %v",
									i, rows.prof[i], pairs.prof[i])
							}
						}
						for p := range pairs.out {
							if !sameFloats(pairs.out[p], rows.out[p]) {
								t.Fatalf("page %d: deferred distances differ", p)
							}
						}
						if !deferred && len(pairs.answers[0]) == 0 {
							t.Error("the pass produced no answers: the comparison is vacuous")
						}
					})
				}
			}
		}
	}
}
