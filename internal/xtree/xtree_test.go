package xtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"metricdb/internal/geom"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

func testConfig() Config {
	return Config{LeafCapacity: 8, DirFanout: 6, BufferPages: 0}
}

func uniformItems(rng *rand.Rand, n, dim int) []store.Item {
	items := make([]store.Item, n)
	for i := range items {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		items[i] = store.Item{ID: store.ItemID(i), Vec: v}
	}
	return items
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{LeafCapacity: 1, DirFanout: 4},
		{LeafCapacity: 4, DirFanout: 1},
		{LeafCapacity: 4, DirFanout: 4, MaxOverlap: 2},
	}
	for _, c := range bad {
		if _, err := New(2, c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if _, err := New(0, testConfig()); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := New(2, testConfig()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig(20)
	if c.LeafCapacity != 195 {
		t.Errorf("LeafCapacity = %d, want 195 (32 KB / 20-d)", c.LeafCapacity)
	}
	if c.DirFanout < 4 {
		t.Errorf("DirFanout = %d", c.DirFanout)
	}
	if _, err := New(20, c); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestInsertValidation(t *testing.T) {
	tr, err := New(2, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(store.Item{ID: 1, Vec: vec.Vector{1, 2, 3}}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := tr.Insert(store.Item{ID: 1, Vec: vec.Vector{1, 2}}); err != nil {
		t.Errorf("valid insert rejected: %v", err)
	}
	if err := tr.Build(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(store.Item{ID: 2, Vec: vec.Vector{0, 0}}); err == nil {
		t.Error("insert after Build accepted")
	}
	if err := tr.Build(); err == nil {
		t.Error("double Build accepted")
	}
}

func TestQueryBeforeBuildPanics(t *testing.T) {
	tr, err := New(2, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when querying an unbuilt tree")
		}
	}()
	tr.Prepare(vec.Vector{0, 0}).Plan(1)
}

func TestTreeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := uniformItems(rng, 2000, 4)
	tr, err := Bulk(items, 4, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Items != 2000 {
		t.Errorf("stats items = %d", s.Items)
	}
	if s.Height < 3 {
		t.Errorf("height = %d, expected a multi-level tree", s.Height)
	}
	if s.Leaves != tr.NumPages() {
		t.Errorf("leaves %d != pages %d", s.Leaves, tr.NumPages())
	}
	if tr.Len() != 2000 || tr.NumItems() != 2000 {
		t.Errorf("Len = %d, NumItems = %d", tr.Len(), tr.NumItems())
	}
	if tr.Dim() != 4 {
		t.Errorf("Dim = %d", tr.Dim())
	}
	if !tr.Built() {
		t.Error("Built() = false after Build")
	}
	// Every item must be stored on exactly one page.
	seen := make(map[store.ItemID]int)
	for pid := 0; pid < tr.NumPages(); pid++ {
		p, err := tr.ReadPage(store.PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range p.Items {
			seen[it.ID]++
		}
	}
	if len(seen) != 2000 {
		t.Fatalf("pages hold %d distinct items, want 2000", len(seen))
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("item %d stored %d times", id, c)
		}
	}
}

func TestSupernodesAppearInHighDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := uniformItems(rng, 3000, 16)
	cfg := Config{LeafCapacity: 16, DirFanout: 8, BufferPages: 0, MaxOverlap: 0.05}
	tr, err := Bulk(items, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats().Supernodes; got == 0 {
		t.Error("expected supernodes in 16-d uniform data with a strict overlap threshold")
	}
}

func TestLowDimensionalTreeAvoidsSupernodes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := uniformItems(rng, 3000, 2)
	tr, err := Bulk(items, 2, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Supernodes > s.DirNodes/4 {
		t.Errorf("2-d uniform data produced %d supernodes of %d dir nodes", s.Supernodes, s.DirNodes)
	}
}

// bruteRange returns the IDs within eps of q.
func bruteRange(items []store.Item, m vec.Metric, q vec.Vector, eps float64) map[store.ItemID]bool {
	out := make(map[store.ItemID]bool)
	for _, it := range items {
		if m.Distance(q, it.Vec) <= eps {
			out[it.ID] = true
		}
	}
	return out
}

// TestPlanCoversRangeQueries checks the pruning safety contract: every item
// within queryDist of q lives on some planned page.
func TestPlanCoversRangeQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := uniformItems(rng, 1500, 6)
	tr, err := Bulk(items, 6, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := vec.Euclidean{}
	for trial := 0; trial < 20; trial++ {
		q := uniformItems(rng, 1, 6)[0].Vec
		eps := 0.2 + rng.Float64()*0.3
		want := bruteRange(items, m, q, eps)

		planned := make(map[store.PageID]bool)
		for _, ref := range tr.Prepare(q).Plan(eps) {
			planned[ref.ID] = true
			if tr.Prepare(q).MinDist(ref.ID) != ref.MinDist {
				t.Fatalf("MinDist(%d) inconsistent with plan", ref.ID)
			}
		}
		got := make(map[store.ItemID]bool)
		for pid := range planned {
			p, err := tr.ReadPage(pid)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range p.Items {
				if m.Distance(q, it.Vec) <= eps {
					got[it.ID] = true
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: plan yields %d answers, brute force %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: item %d missed by plan", trial, id)
			}
		}
	}
}

func TestPlanIsSortedAndSelective(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	items := uniformItems(rng, 2000, 3)
	tr, err := Bulk(items, 3, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := vec.Vector{0.5, 0.5, 0.5}

	all := tr.Prepare(q).Plan(math.Inf(1))
	if len(all) != tr.NumPages() {
		t.Errorf("unbounded plan has %d pages, want all %d", len(all), tr.NumPages())
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].MinDist <= all[j].MinDist }) {
		t.Error("plan not sorted by MinDist")
	}

	small := tr.Prepare(q).Plan(0.05)
	if len(small) >= len(all) {
		t.Errorf("tight range query planned %d of %d pages — no selectivity in 3-d", len(small), len(all))
	}
}

func TestNonCoordinatewiseMetricLosesSelectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	items := uniformItems(rng, 300, 4)
	hm, err := vec.HistogramSimilarityMatrix(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	qf, err := vec.NewQuadraticForm(4, hm)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Metric = qf
	tr, err := Bulk(items, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All bounds are zero: the plan must include every page (scan
	// degeneration, safe but unselective).
	if got := len(tr.Prepare(vec.Vector{0, 0, 0, 0}).Plan(0.01)); got != tr.NumPages() {
		t.Errorf("quadratic-form plan covers %d of %d pages", got, tr.NumPages())
	}
}

func TestBuildUsesDefaultBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	items := uniformItems(rng, 1000, 2)
	cfg := testConfig()
	cfg.BufferPages = -1
	tr, err := Bulk(items, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := tr.Pager().Buffer()
	if buf == nil {
		t.Fatal("default buffer missing")
	}
	if want := store.DefaultBufferPages(tr.NumPages()); buf.Capacity() != want {
		t.Errorf("buffer capacity = %d, want %d", buf.Capacity(), want)
	}
}

// Property: leaf MBRs are tight — every stored item lies inside its page's
// reported rectangle (checked via MinDist == 0 from the item itself).
func TestLeafRectsContainItemsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		items := uniformItems(rng, 200+rng.Intn(200), 3)
		tr, err := Bulk(items, 3, testConfig())
		if err != nil {
			return false
		}
		for pid := 0; pid < tr.NumPages(); pid++ {
			p, err := tr.ReadPage(store.PageID(pid))
			if err != nil {
				return false
			}
			for _, it := range p.Items {
				if tr.Prepare(it.Vec).MinDist(store.PageID(pid)) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestTopologicalSplitBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rects := make([]geom.Rect, 20)
	for i := range rects {
		a := vec.Vector{rng.Float64(), rng.Float64()}
		r := geom.PointRect(a)
		r.Extend(vec.Vector{a[0] + rng.Float64()*0.1, a[1] + rng.Float64()*0.1})
		rects[i] = r
	}
	res := new(splitScratch).topologicalSplit(rects, 8, false)
	if len(res.left) < 8 || len(res.right) < 8 {
		t.Errorf("split violates minFill: %d/%d", len(res.left), len(res.right))
	}
	if len(res.left)+len(res.right) != 20 {
		t.Errorf("split loses entries: %d + %d", len(res.left), len(res.right))
	}
	// Every index appears exactly once.
	seen := make(map[int]bool)
	for _, i := range append(append([]int(nil), res.left...), res.right...) {
		if seen[i] {
			t.Fatalf("index %d appears twice", i)
		}
		seen[i] = true
	}
	// Group rects cover their members.
	for _, i := range res.left {
		if !res.leftRect.ContainsRect(rects[i]) {
			t.Errorf("left rect misses member %d", i)
		}
	}
	for _, i := range res.right {
		if !res.rightRect.ContainsRect(rects[i]) {
			t.Errorf("right rect misses member %d", i)
		}
	}
}

func TestSplitOverlapRatio(t *testing.T) {
	a, _ := geom.NewRect(vec.Vector{0, 0}, vec.Vector{1, 1})
	b, _ := geom.NewRect(vec.Vector{2, 0}, vec.Vector{3, 1})
	s := splitResult{leftRect: a, rightRect: b}
	if got := s.overlapRatio(); got != 0 {
		t.Errorf("disjoint overlap ratio = %v", got)
	}
	c, _ := geom.NewRect(vec.Vector{0, 0}, vec.Vector{1, 1})
	d, _ := geom.NewRect(vec.Vector{0.5, 0}, vec.Vector{1.5, 1})
	s2 := splitResult{leftRect: c, rightRect: d, overlap: c.Overlap(d)}
	if got := s2.overlapRatio(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("overlap ratio = %v, want 1/3", got)
	}
	// Degenerate zero-volume union.
	e := geom.PointRect(vec.Vector{1, 1})
	s3 := splitResult{leftRect: e, rightRect: e}
	if got := s3.overlapRatio(); got != 0 {
		t.Errorf("degenerate ratio = %v", got)
	}
}

func TestOverlapFreeSplitUsesHistory(t *testing.T) {
	// Force high-overlap topological splits with a strict threshold: the
	// history mechanism should still find zero-overlap directory splits
	// where possible, keeping some splits that a pure supernode policy
	// would refuse.
	rng := rand.New(rand.NewSource(61))
	items := uniformItems(rng, 4000, 8)
	strict := Config{LeafCapacity: 16, DirFanout: 8, BufferPages: 0, MaxOverlap: 0.0001}
	tr, err := Bulk(items, 8, strict)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.DirNodes <= 1 {
		t.Skip("tree too small to exercise directory splits")
	}
	// With history-based splits available, the directory must not
	// degenerate into a single giant supernode: some directory splits
	// must have succeeded despite the brutal overlap threshold.
	if s.DirNodes < 3 {
		t.Errorf("directory degenerated to %+v", s)
	}

	// Correctness under the strict threshold.
	m := vec.Euclidean{}
	q := items[123].Vec
	want := len(bruteRange(items, m, q, 0.4))
	got := 0
	for _, ref := range tr.Prepare(q).Plan(0.4) {
		p, err := tr.ReadPage(ref.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range p.Items {
			if m.Distance(q, it.Vec) <= 0.4 {
				got++
			}
		}
	}
	if got != want {
		t.Errorf("range query under history splits: %d answers, want %d", got, want)
	}
}

func TestHistoryBit(t *testing.T) {
	if historyBit(3, 8) != 1<<3 {
		t.Error("historyBit wrong")
	}
	if historyBit(70, 128) != 0 || historyBit(3, 128) != 0 {
		t.Error("high-dimensional history should be disabled")
	}
}
