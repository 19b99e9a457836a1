package xtree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"metricdb/internal/engine"
	"metricdb/internal/geom"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// leafRects returns the data pages' MBRs in page order, from the nodes.
func leafRects(tr *Tree) []geom.Rect {
	var rects []geom.Rect
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			rects = append(rects, n.rect)
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
	return rects
}

// rectBound is the bound of one MBR as a vec.Boxes of one box computes it.
func rectBound(m vec.Metric, r geom.Rect, q vec.Vector) float64 {
	return vec.NewBoxes(m, []vec.Vector{r.Min}, []vec.Vector{r.Max}).Bound(q, 0)
}

// kthDistance is the k-th smallest distance from q to the tree's items (the
// largest when it holds fewer): a k-NN query distance as the page loop
// reaches it, finite and between the plan's lower bounds.
func kthDistance(t testing.TB, tr *Tree, q vec.Vector, k int) float64 {
	t.Helper()
	var dists []float64
	for pid := 0; pid < tr.NumPages(); pid++ {
		page, err := tr.ReadPage(store.PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range page.Items {
			dists = append(dists, tr.cfg.Metric.Distance(q, it.Vec))
		}
		tr.Pager().Release(page)
	}
	slices.Sort(dists)
	return dists[min(k, len(dists))-1]
}

// recursivePlan is the plan as it was walked before the child MBRs became
// lanes — a recursive descent that bounds every node's own rectangle, one
// box at a time, and sorts by reflection — kept as the oracle of Plan.
func recursivePlan(tr *Tree, q vec.Vector, queryDist float64) []engine.PageRef {
	var refs []engine.PageRef
	var walk func(n *node)
	walk = func(n *node) {
		b := rectBound(tr.cfg.Metric, n.rect, q)
		if b > queryDist {
			return
		}
		if n.isLeaf() {
			refs = append(refs, engine.PageRef{ID: n.pid, MinDist: b})
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
	slices.SortFunc(refs, func(a, b engine.PageRef) int {
		if c := cmp.Compare(a.MinDist, b.MinDist); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return refs
}

// planTrees builds the shapes the walk has to get right: a single leaf, a
// root over leaves, deep trees of small fanout (the fanout-8 one without
// supernodes: at MaxOverlap 1 every directory split is taken, as in an
// R*-tree), the same points at the default MaxOverlap, whose supernodes
// make directory levels wider than the fanout, a 16-d tree with supernodes,
// and TestBulkGoldenDigest's
// 20 000 × 8-d tree — 66 leaves under one root, the shape of the
// benchmark's dbscan_xtree tree.
func planTrees(t testing.TB) map[string]*Tree {
	t.Helper()
	trees := map[string]*Tree{}
	add := func(name string, seed int64, n, dim int, cfg Config) {
		tr, err := Bulk(uniformItems(rand.New(rand.NewSource(seed)), n, dim), dim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		trees[name] = tr
	}
	add("height1", 1, 7, 3, testConfig())
	add("height2", 2, 40, 3, testConfig())
	add("deep/fanout4", 3, 2500, 4, Config{LeafCapacity: 4, DirFanout: 4})
	add("deep/fanout8", 4, 6000, 5, Config{LeafCapacity: 4, DirFanout: 8, MaxOverlap: 1})
	add("supernodes/fanout8", 4, 6000, 5, Config{LeafCapacity: 4, DirFanout: 8})
	add("supernodes/16d", 5, 3000, 16, Config{LeafCapacity: 8, DirFanout: 6})
	add("manhattan", 6, 1500, 6, Config{LeafCapacity: 8, DirFanout: 5, Metric: vec.Manhattan{}})
	add("66leaves", 1, 20000, 8, DefaultConfig(8))
	return trees
}

// TestPlanMatchesRecursiveWalk holds the stack loop over swept lanes to the
// recursive walk it replaced: the same refs with the same bits in the same
// order at queryDist 0, ε, a k-NN query distance and +Inf, and MinDist of
// every page equal to the bound of its MBR.
func TestPlanMatchesRecursiveWalk(t *testing.T) {
	trees := planTrees(t)
	for name, want := range map[string]Stats{
		"height1": {Height: 1}, "height2": {Height: 2}, "66leaves": {Height: 2, Leaves: 66},
	} {
		got := trees[name].Stats()
		if got.Height != want.Height || (want.Leaves != 0 && got.Leaves != want.Leaves) {
			t.Errorf("%s: stats %+v", name, got)
		}
	}
	for _, name := range []string{"deep/fanout4", "deep/fanout8"} {
		if got := trees[name].Stats(); got.Height < 4 {
			t.Errorf("%s: height %d, want at least 4", name, got.Height)
		}
	}
	if got := trees["supernodes/16d"].Stats(); got.Supernodes == 0 {
		t.Errorf("supernodes/16d: stats %+v", got)
	}

	rng := rand.New(rand.NewSource(9))
	for name, tr := range trees {
		rects := leafRects(tr)
		for round := 0; round < 20; round++ {
			q := make(vec.Vector, tr.Dim())
			for d := range q {
				q[d] = 1.4*rng.Float64() - 0.2
			}
			pq := tr.Prepare(q)
			for pid, r := range rects {
				if lo, want := pq.MinDist(store.PageID(pid)), rectBound(tr.cfg.Metric, r, q); lo != want {
					t.Fatalf("%s: page %d bound %v, want %v", name, pid, lo, want)
				}
			}
			for _, queryDist := range []float64{0, 0.05, 0.3, kthDistance(t, tr, q, 10), math.Inf(1)} {
				got, want := pq.Plan(queryDist), recursivePlan(tr, q, queryDist)
				if len(got) != len(want) {
					t.Fatalf("%s queryDist=%v: %d refs, want %d", name, queryDist, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || math.Float64bits(got[i].MinDist) != math.Float64bits(want[i].MinDist) {
						t.Fatalf("%s queryDist=%v: ref %d is %+v, want %+v", name, queryDist, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPlanDegenerateTrees: a tree without items is one empty leaf whose
// rectangle is (+Inf, −Inf) — infinitely far, so in no plan short of +Inf —
// and a tree of one leaf has no directory node to sweep.
func TestPlanDegenerateTrees(t *testing.T) {
	empty, err := Bulk(nil, 3, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := vec.Vector{0.5, 0.5, 0.5}
	pq := empty.Prepare(q)
	if plan := pq.Plan(1e300); len(plan) != 0 {
		t.Errorf("empty tree: plan %v", plan)
	}
	if lo := pq.MinDist(0); !math.IsInf(lo, 1) {
		t.Errorf("empty tree: bound %v, want +Inf", lo)
	}
	if got, want := pq.Plan(math.Inf(1)), recursivePlan(empty, q, math.Inf(1)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("empty tree: +Inf plan %v, the recursive walk's %v", got, want)
	}

	single, err := Bulk(uniformItems(rand.New(rand.NewSource(8)), 5, 3), 3, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	pq = single.Prepare(vec.Vector{2, 2, 2})
	if plan := pq.Plan(0.5); len(plan) != 0 {
		t.Errorf("single leaf, query far away: plan %v", plan)
	}
	if plan := pq.Plan(4); len(plan) != 1 || plan[0].ID != 0 || plan[0].MinDist != pq.MinDist(0) {
		t.Errorf("single leaf: plan %v, MinDist %v", plan, pq.MinDist(0))
	}
}

// TestPlanAllocatesItsResultOnly: the walk's scratch is the frames', so a
// plan costs one allocation — the refs, sized once even when there are more
// of them than the frame holds — and an empty plan none; appended to a
// buffer that an earlier plan grew, it costs none, however wide the
// directory levels (the supernode tree's).
func TestPlanAllocatesItsResultOnly(t *testing.T) {
	trees := planTrees(t)
	for _, c := range []struct {
		tree      string
		queryDist float64
		allocs    float64
	}{
		{"66leaves", 0.05, 1}, {"66leaves", math.Inf(1), 1}, {"66leaves", -1, 0},
		{"deep/fanout8", 0.1, 1}, {"deep/fanout8", math.Inf(1), 1}, {"height1", 4, 1},
		{"supernodes/fanout8", 0.1, 1}, {"supernodes/fanout8", math.Inf(1), 1},
	} {
		tr := trees[c.tree]
		q := make(vec.Vector, tr.Dim())
		for d := range q {
			q[d] = 0.5
		}
		pq := tr.Prepare(q).(*prepared)
		if c.allocs > 0 && len(pq.Plan(c.queryDist)) == 0 {
			t.Fatalf("%s queryDist=%v: empty plan", c.tree, c.queryDist)
		}
		if got := testing.AllocsPerRun(50, func() { pq.Plan(c.queryDist) }); got != c.allocs {
			t.Errorf("%s queryDist=%v: %v allocations per plan, want %v", c.tree, c.queryDist, got, c.allocs)
		}
		buf := pq.AppendPlan(nil, c.queryDist)
		if got := testing.AllocsPerRun(50, func() { buf = pq.AppendPlan(buf[:0], c.queryDist) }); got != 0 {
			t.Errorf("%s queryDist=%v: %v allocations per plan into a grown buffer, want 0", c.tree, c.queryDist, got)
		}
	}
}

// BenchmarkPlan prices determine_relevant_data_pages on the 66-leaf tree
// (one sweep of the root) and on a deep one: a DBSCAN-sized ε-plan and the +Inf plan of
// an unbounded k-NN query. The query changes with every plan, as it does in
// a mining loop.
func BenchmarkPlan(b *testing.B) {
	trees := planTrees(b)
	rng := rand.New(rand.NewSource(10))
	for _, name := range []string{"66leaves", "deep/fanout8"} {
		tr := trees[name]
		queries := make([]engine.PreparedQuery, 256)
		for i := range queries {
			q := make(vec.Vector, tr.Dim())
			for d := range q {
				q[d] = rng.Float64()
			}
			queries[i] = tr.Prepare(q)
		}
		for _, queryDist := range []float64{0.05, math.Inf(1)} {
			b.Run(fmt.Sprintf("%s/queryDist=%v", name, queryDist), func(b *testing.B) {
				b.ReportAllocs()
				refs := 0
				for i := 0; i < b.N; i++ {
					refs += len(queries[i&255].Plan(queryDist))
				}
				b.ReportMetric(float64(refs)/float64(b.N), "refs/plan")
			})
		}
	}
}
