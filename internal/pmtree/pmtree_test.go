package pmtree

import (
	"math"
	"math/rand"
	"sort"
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
	items := testItems(1, 100, 4)
	if _, err := New(nil, Config{PageCapacity: 8}); err == nil {
		t.Error("empty database accepted")
	}
	if _, err := New(items, Config{}); err == nil {
		t.Error("zero page capacity accepted")
	}
	if _, err := New(items, Config{PageCapacity: 8, Fanout: 1}); err == nil {
		t.Error("fanout 1 accepted")
	}
	e, err := New(items, Config{PageCapacity: 8, Pivots: 4, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "pmtree" {
		t.Errorf("Name = %q", e.Name())
	}
	if e.NumItems() != 100 {
		t.Errorf("NumItems = %d", e.NumItems())
	}
	if e.NumPages() != 13 { // ceil(100/8) clusters
		t.Errorf("NumPages = %d", e.NumPages())
	}
	total := 0
	for pid := 0; pid < e.NumPages(); pid++ {
		p, err := e.ReadPage(store.PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		n := len(p.Items)
		e.Pager().Release(p)
		if n < 1 || n > 8 {
			t.Errorf("page %d holds %d items, capacity 8", pid, n)
		}
		total += n
	}
	if total != 100 {
		t.Errorf("pages hold %d items in total", total)
	}
	if d := e.Describe(); d.Pivots != 4 || d.Fanout != 4 || d.PageCapacity != 8 {
		t.Errorf("Describe = %+v", d)
	}
	if e.BuildDistCalcs() == 0 {
		t.Error("bulk load reported no distance calculations")
	}
}

// TestPagesPartitionItems: the clustered pages must hold every item
// exactly once.
func TestPagesPartitionItems(t *testing.T) {
	items := testItems(2, 333, 5)
	e, err := New(items, Config{PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[store.ItemID]int{}
	for pid := 0; pid < e.NumPages(); pid++ {
		p, err := e.ReadPage(store.PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range p.Items {
			seen[it.ID]++
		}
	}
	if len(seen) != len(items) {
		t.Fatalf("pages hold %d distinct items, want %d", len(seen), len(items))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("item %d appears %d times", id, n)
		}
	}
}

// TestBoundsSafety: for every page, MinDist ≤ the true distance of every
// item on the page — the soundness of both the ball and the hyper-ring
// filters.
func TestBoundsSafety(t *testing.T) {
	const dim = 5
	for _, metric := range []vec.Metric{vec.Euclidean{}, vec.Manhattan{}, vec.Chebyshev{}} {
		items := testItems(3, 300, dim)
		e, err := New(items, Config{PageCapacity: 16, Pivots: 4, Fanout: 4, Metric: metric})
		if err != nil {
			t.Fatal(err)
		}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			q := make(vec.Vector, dim)
			for d := range q {
				q[d] = rng.Float64()*1.5 - 0.25
			}
			pq := e.Prepare(q)
			const eps = 1e-9
			for pid := 0; pid < e.NumPages(); pid++ {
				p, err := e.ReadPage(store.PageID(pid))
				if err != nil {
					return false
				}
				lb := pq.MinDist(store.PageID(pid))
				for it := range p.Items {
					d := metric.Distance(q, p.Items[it].Vec)
					if d < lb-eps {
						t.Logf("metric %s page %d item %d: d=%v below %v",
							metric.Name(), pid, it, d, lb)
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("metric %s: %v", metric.Name(), err)
		}
	}
}

// TestPlan: the best-first descent must emit a duplicate-free ascending
// schedule whose entries agree with MinDist, and omit a page only when its
// bound exceeds the query distance.
func TestPlan(t *testing.T) {
	const dim = 4
	items := testItems(4, 500, dim)
	e, err := New(items, Config{PageCapacity: 16, Pivots: 4, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := vec.Vector{0.9, 0.1, 0.4, 0.7}
	pq := e.Prepare(q)

	full := pq.Plan(math.Inf(1))
	if len(full) != e.NumPages() {
		t.Fatalf("unbounded plan has %d pages, want %d", len(full), e.NumPages())
	}
	if !sort.SliceIsSorted(full, func(i, j int) bool { return full[i].MinDist < full[j].MinDist }) {
		t.Error("plan not in ascending MinDist order")
	}
	seen := map[store.PageID]bool{}
	for _, ref := range full {
		if seen[ref.ID] {
			t.Fatalf("page %d appears twice", ref.ID)
		}
		seen[ref.ID] = true
		if got := pq.MinDist(ref.ID); got != ref.MinDist {
			t.Fatalf("page %d: plan lb %v != MinDist %v", ref.ID, ref.MinDist, got)
		}
	}

	const eps = 0.3
	tight := e.Prepare(q).Plan(eps)
	if len(tight) == len(full) {
		t.Error("tight range query pruned nothing")
	}
	inPlan := map[store.PageID]bool{}
	for _, ref := range tight {
		if ref.MinDist > eps {
			t.Errorf("page %d in plan with lb %v > eps %v", ref.ID, ref.MinDist, eps)
		}
		inPlan[ref.ID] = true
	}
	// Omitted pages really are out of range. (A fresh handle probes leaf
	// bounds directly, unclamped by the descent.)
	probe := e.Prepare(q)
	for pid := 0; pid < e.NumPages(); pid++ {
		id := store.PageID(pid)
		if !inPlan[id] && probe.MinDist(id) <= eps {
			t.Errorf("page %d omitted with lb %v <= eps %v", pid, probe.MinDist(id), eps)
		}
	}
}

// TestPivotDistCalcs: Prepare pays one distance per ring pivot; probes pay
// at most one memoized routing-center distance per node.
func TestPivotDistCalcs(t *testing.T) {
	items := testItems(5, 200, 4)
	e, err := New(items, Config{PageCapacity: 16, Pivots: 4})
	if err != nil {
		t.Fatal(err)
	}
	pq := e.Prepare(items[0].Vec)
	after := e.PivotDistCalcs()
	if after != 4 {
		t.Fatalf("PivotDistCalcs after Prepare = %d, want 4", after)
	}
	pq.Plan(math.Inf(1))
	planCost := e.PivotDistCalcs() - after
	// A full descent touches every node's center exactly once.
	if planCost > int64(len(e.nodes)) {
		t.Fatalf("plan paid %d center distances over %d nodes", planCost, len(e.nodes))
	}
	before := e.PivotDistCalcs()
	pq.Plan(math.Inf(1))
	for pid := 0; pid < e.NumPages(); pid++ {
		pq.MinDist(store.PageID(pid))
	}
	if got := e.PivotDistCalcs(); got != before {
		t.Fatalf("repeated probes paid %d more distances — memoization broken", got-before)
	}
}

// TestQueriesMatchScan: answers must be bit-identical to the sequential
// scan for both query types.
func TestQueriesMatchScan(t *testing.T) {
	const dim = 6
	items := testItems(6, 800, dim)
	pe, err := New(items, Config{PageCapacity: 16, Pivots: 4, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.New(items, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := vec.Euclidean{}
	pp, err := msq.New(pe, m, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := msq.New(sc, m, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		q := testItems(rng.Int63(), 1, dim)[0].Vec
		var typ query.Type
		if trial%2 == 0 {
			typ = query.NewKNN(8)
		} else {
			typ = query.NewRange(0.3)
		}
		ap, _, err := pp.Single(q, typ)
		if err != nil {
			t.Fatal(err)
		}
		as, _, err := ps.Single(q, typ)
		if err != nil {
			t.Fatal(err)
		}
		p1, s1 := ap.Answers(), as.Answers()
		if len(p1) != len(s1) {
			t.Fatalf("trial %d: %d vs %d answers", trial, len(p1), len(s1))
		}
		for i := range p1 {
			if p1[i].ID != s1[i].ID || p1[i].Dist != s1[i].Dist {
				t.Fatalf("trial %d answer %d: %+v vs %+v", trial, i, p1[i], s1[i])
			}
		}
	}
}

// TestMultiQueryMatchesBruteForce exercises the multi-query machinery over
// the PM-tree.
func TestMultiQueryMatchesBruteForce(t *testing.T) {
	const dim = 5
	items := testItems(8, 600, dim)
	e, err := New(items, Config{PageCapacity: 16, Pivots: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := vec.Euclidean{}
	p, err := msq.New(e, m, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]msq.Query, 10)
	rng := rand.New(rand.NewSource(9))
	for i := range queries {
		queries[i] = msq.Query{ID: uint64(i), Vec: items[rng.Intn(len(items))].Vec.Clone(), Type: query.NewKNN(6)}
	}
	results, stats, err := p.MultiQuery(queries)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PivotDistCalcs == 0 {
		t.Error("PM-tree batch reported no pivot distance calculations")
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

// TestBuildDeterminism: two builds over the same items produce identical
// trees (same pages, same node geometry).
func TestBuildDeterminism(t *testing.T) {
	items := testItems(10, 400, 5)
	a, err := New(items, Config{PageCapacity: 16, Pivots: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(items, Config{PageCapacity: 16, Pivots: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.nodes) != len(b.nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(a.nodes), len(b.nodes))
	}
	for i := range a.nodes {
		na, nb := &a.nodes[i], &b.nodes[i]
		if na.radius != nb.radius || na.pid != nb.pid {
			t.Fatalf("node %d differs: %+v vs %+v", i, na, nb)
		}
		for p := range na.ringMin {
			if na.ringMin[p] != nb.ringMin[p] || na.ringMax[p] != nb.ringMax[p] {
				t.Fatalf("node %d ring %d differs", i, p)
			}
		}
	}
	for pid := 0; pid < a.NumPages(); pid++ {
		pa, _ := a.ReadPage(store.PageID(pid))
		pb, _ := b.ReadPage(store.PageID(pid))
		for i := range pa.Items {
			if pa.Items[i].ID != pb.Items[i].ID {
				t.Fatalf("page %d item %d differs", pid, i)
			}
		}
	}
}
