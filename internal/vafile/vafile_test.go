package vafile

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"metricdb/internal/dataset"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

func testItems(seed int64, n, dim int) []store.Item {
	return dataset.Uniform(seed, n, dim)
}

func TestNewValidation(t *testing.T) {
	items := testItems(1, 50, 4)
	if _, err := New(nil, Config{}); err == nil {
		t.Error("empty database accepted")
	}
	if _, err := New(items, Config{Bits: 9}); err == nil {
		t.Error("9 bits accepted")
	}
	if _, err := New(items, Config{Bits: -1}); err == nil {
		t.Error("negative bits accepted")
	}
	wide := testItems(1, 50, 4)
	wide[3].Vec[1], wide[9].Vec[1] = -math.MaxFloat64, math.MaxFloat64
	if _, err := New(wide, Config{}); err == nil || !strings.Contains(err.Error(), "dimension 1 spans") {
		t.Errorf("a range wider than float64: error %v, want one naming dimension 1", err)
	}
	e, err := New(items, Config{PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "vafile" {
		t.Errorf("Name = %q", e.Name())
	}
	if e.NumItems() != 50 || e.NumPages() != 7 {
		t.Errorf("NumItems=%d NumPages=%d", e.NumItems(), e.NumPages())
	}
	if n0, n6 := len(e.pages[0].cells)/4, len(e.pages[6].cells)/4; n0 != 8 || n6 != 2 {
		t.Errorf("pages 0 and 6 approximate %d / %d items", n0, n6)
	}
	// 6 bits default, 4 dims, 50 items: 200 approximation bytes.
	if got := e.ApproximationBytes(); got != 200 {
		t.Errorf("ApproximationBytes = %d, want 200", got)
	}
}

// TestBoundsSafety property-tests the load-bearing contract: for every
// item, itemLowerBound <= true distance, and so is the page bound.
func TestBoundsSafety(t *testing.T) {
	const dim = 5
	items := testItems(2, 300, dim)
	e, err := New(items, Config{PageCapacity: 16, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := vec.Euclidean{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := make(vec.Vector, dim)
		for d := range q {
			q[d] = rng.Float64()*1.5 - 0.25 // partly outside the data range
		}
		scratch := make(vec.Vector, dim)
		zero := make(vec.Vector, dim)
		const eps = 1e-9
		for pid := 0; pid < e.NumPages(); pid++ {
			p, err := e.ReadPage(store.PageID(pid))
			if err != nil {
				return false
			}
			pq := e.Prepare(q)
			pageLB := pq.MinDist(store.PageID(pid))
			for it := range p.Items {
				d := m.Distance(q, p.Items[it].Vec)
				lb := e.itemLowerBound(q, store.PageID(pid), it, scratch, zero)
				if lb > d+eps || pageLB > d+eps {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQueriesMatchScan runs the full query stack over the VA-file and
// cross-checks against the scan engine.
func TestQueriesMatchScan(t *testing.T) {
	const dim = 6
	items := testItems(3, 800, dim)
	va, err := New(items, Config{PageCapacity: 16, Bits: 6})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.New(items, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := vec.Euclidean{}
	pv, err := msq.New(va, m, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := msq.New(sc, m, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		q := testItems(rng.Int63(), 1, dim)[0].Vec
		var typ query.Type
		if trial%2 == 0 {
			typ = query.NewKNN(8)
		} else {
			typ = query.NewRange(0.3)
		}
		av, _, err := pv.Single(q, typ)
		if err != nil {
			t.Fatal(err)
		}
		as, _, err := ps.Single(q, typ)
		if err != nil {
			t.Fatal(err)
		}
		va1, sc1 := av.Answers(), as.Answers()
		if len(va1) != len(sc1) {
			t.Fatalf("trial %d: %d vs %d answers", trial, len(va1), len(sc1))
		}
		for i := range va1 {
			if va1[i].ID != sc1[i].ID || math.Abs(va1[i].Dist-sc1[i].Dist) > 1e-12 {
				t.Fatalf("trial %d answer %d: %+v vs %+v", trial, i, va1[i], sc1[i])
			}
		}
	}
}

// TestVAFileIsSelective: with enough bits, tight queries exclude most pages
// from phase 2, unlike the plain scan.
func TestVAFileIsSelective(t *testing.T) {
	const dim = 4 // moderate dimension: approximations are effective
	items := testItems(5, 3000, dim)
	va, err := New(items, Config{PageCapacity: 16, Bits: 6})
	if err != nil {
		t.Fatal(err)
	}
	m := vec.Euclidean{}
	p, err := msq.New(va, m, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := p.Single(vec.Vector{0.5, 0.5, 0.5, 0.5}, query.NewKNN(10))
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesRead >= int64(va.NumPages())/2 {
		t.Errorf("VA-file read %d of %d pages — approximations not selective", st.PagesRead, va.NumPages())
	}

	// Plan ordering is ascending by lower bound.
	plan := va.Prepare(vec.Vector{0.1, 0.9, 0.5, 0.2}).Plan(math.Inf(1))
	if !sort.SliceIsSorted(plan, func(i, j int) bool { return plan[i].MinDist <= plan[j].MinDist }) {
		t.Error("plan not sorted by lower bound")
	}
}

// TestMultiQueryOnVAFile exercises the full multi-query machinery over the
// VA-file and checks equivalence with per-query brute force.
func TestMultiQueryOnVAFile(t *testing.T) {
	const dim = 5
	items := testItems(6, 600, dim)
	va, err := New(items, Config{PageCapacity: 16, Bits: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := vec.Euclidean{}
	p, err := msq.New(va, m, msq.Options{Avoidance: msq.AvoidBoth})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]msq.Query, 10)
	rng := rand.New(rand.NewSource(7))
	for i := range queries {
		queries[i] = msq.Query{ID: uint64(i), Vec: items[rng.Intn(len(items))].Vec.Clone(), Type: query.NewKNN(6)}
	}
	results, stats, err := p.MultiQuery(queries)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Avoided == 0 {
		t.Error("no distance calculations avoided on the VA-file path")
	}
	for i, q := range queries {
		l := query.NewAnswerList(q.Type)
		for _, it := range items {
			l.Consider(it.ID, m.Distance(q.Vec, it.Vec))
		}
		want := l.Answers()
		got := results[i].Answers()
		if len(got) != len(want) {
			t.Fatalf("query %d: %d vs %d answers", i, len(got), len(want))
		}
		for j := range want {
			if got[j].ID != want[j].ID {
				t.Fatalf("query %d answer %d: %+v vs %+v", i, j, got[j], want[j])
			}
		}
	}
}

// TestNonCoordinatewiseDegradesToScan: with a quadratic-form metric, all
// bounds collapse and the VA-file behaves like a scan (still correct).
func TestNonCoordinatewiseDegradesToScan(t *testing.T) {
	const dim = 4
	items := testItems(8, 200, dim)
	hm, err := vec.HistogramSimilarityMatrix(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	qf, err := vec.NewQuadraticForm(dim, hm)
	if err != nil {
		t.Fatal(err)
	}
	va, err := New(items, Config{PageCapacity: 8, Metric: qf})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(va.Prepare(items[0].Vec).Plan(0.01)); got != va.NumPages() {
		t.Errorf("quadratic-form plan covers %d of %d pages", got, va.NumPages())
	}
	if got := va.Prepare(items[0].Vec).MinDist(0); got != 0 {
		t.Errorf("MinDist %v for a non-coordinatewise metric, want 0", got)
	}

	p, err := msq.New(va, qf, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := p.Single(items[0].Vec, query.NewKNN(3))
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers()[0].ID != items[0].ID {
		t.Error("nearest neighbor of a stored object is not itself")
	}
}

func TestCellOfEdges(t *testing.T) {
	items := []store.Item{
		{ID: 0, Vec: vec.Vector{0}},
		{ID: 1, Vec: vec.Vector{1}},
		{ID: 2, Vec: vec.Vector{0.5}},
		{ID: 3, Vec: vec.Vector{0.5}}, // duplicate values
	}
	e, err := New(items, Config{PageCapacity: 4, Bits: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c := e.cellOf(0, -5); c != 0 {
		t.Errorf("below-range cell = %d", c)
	}
	if c := e.cellOf(0, 5); c != 3 {
		t.Errorf("above-range cell = %d", c)
	}
	if c := e.cellOf(0, 0); c != 0 {
		t.Errorf("min cell = %d", c)
	}
	if c := e.cellOf(0, 1); c != 3 {
		t.Errorf("max cell = %d", c)
	}

	// Constant dimension must not divide by zero.
	flat := []store.Item{{ID: 0, Vec: vec.Vector{7}}, {ID: 1, Vec: vec.Vector{7}}}
	if _, err := New(flat, Config{PageCapacity: 2, Bits: 3}); err != nil {
		t.Errorf("constant dimension rejected: %v", err)
	}
}
