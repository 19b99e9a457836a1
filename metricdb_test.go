package metricdb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"metricdb/internal/dataset"
	"metricdb/internal/engines"
	"metricdb/internal/vafile"
)

func testItems(seed int64, n, dim int) []Item {
	return dataset.Uniform(seed, n, dim)
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil, Options{}); err == nil {
		t.Error("empty database accepted")
	}
	bad := testItems(1, 10, 3)
	bad[4].ID = 99
	if _, err := Open(bad, Options{}); err == nil {
		t.Error("misnumbered items accepted")
	}
	mixed := testItems(1, 10, 3)
	mixed[2].Vec = Vector{1, 2}
	if _, err := Open(mixed, Options{}); err == nil {
		t.Error("mixed dimensions accepted")
	}
	if _, err := Open(testItems(1, 10, 3), Options{Engine: "btree"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := Open([]Item{{ID: 0, Vec: Vector{}}}, Options{}); err == nil {
		t.Error("zero-dimensional items accepted")
	}
}

// TestVAFileRejectsNonFiniteCoordinates: a NaN or infinite coordinate has no
// cell, and a VA-file over one used to panic with an index out of range.
// vafile.New, engines.Build and Open now return an error naming the item and
// the dimension.
func TestVAFileRejectsNonFiniteCoordinates(t *testing.T) {
	expectNonFiniteRejected(t, func(items []Item) map[string]func() error {
		return map[string]func() error{
			"vafile.New": func() error {
				_, err := vafile.New(items, vafile.Config{PageCapacity: 8})
				return err
			},
			"engines.Build": func() error {
				_, err := engines.Build(engines.Spec{Kind: engines.VAFile, Items: items, Dim: 4, PageCapacity: 8})
				return err
			},
			"Open": func() error {
				_, err := Open(items, Options{Engine: EngineVAFile, PageCapacity: 8})
				return err
			},
		}
	})
}

// TestNonFiniteCoordinatesRejected: a NaN or infinite coordinate can never
// be answered and breaks the total orders the index builds rely on. Every
// engine kind refuses it — through engines.Build and Open — with the error
// vafile.New returns, and so does the store's writer, so that no dataset
// directory holds one for OpenStored to serve.
func TestNonFiniteCoordinatesRejected(t *testing.T) {
	expectNonFiniteRejected(t, func(items []Item) map[string]func() error {
		builds := map[string]func() error{}
		for _, kind := range engines.Kinds() {
			builds["engines.Build/"+string(kind)] = func() error {
				_, err := engines.Build(engines.Spec{Kind: kind, Items: items, Dim: 4, PageCapacity: 8})
				return err
			}
			builds["Open/"+string(kind)] = func() error {
				_, err := Open(items, Options{Engine: EngineKind(kind), PageCapacity: 8})
				return err
			}
		}
		builds["Advise"] = func() error {
			_, err := Advise(items, 1)
			return err
		}
		builds["dataset.SaveDir"] = func() error {
			return dataset.SaveDir(t.TempDir(), items, dataset.SaveOptions{PageCapacity: 8, NoSync: true})
		}
		return builds
	})
}

// expectNonFiniteRejected sets coordinate 2 of item 17 to NaN, +Inf and -Inf
// in turn and checks that every build refuses the items with an error naming
// that item and dimension.
func expectNonFiniteRejected(t *testing.T, builds func([]Item) map[string]func() error) {
	t.Helper()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		items := testItems(3, 40, 4)
		items[17].Vec[2] = v
		want := fmt.Sprintf("item 17 has coordinate %v in dimension 2", v)
		for name, build := range builds(items) {
			if err := build(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with coordinate %v: error %v, want one containing %q", name, v, err, want)
			}
		}
	}
}

func TestNewItems(t *testing.T) {
	items := NewItems([]Vector{{1, 2}, {3, 4}})
	if len(items) != 2 || items[0].ID != 0 || items[1].ID != 1 {
		t.Errorf("NewItems = %+v", items)
	}
}

func TestOpenDefaults(t *testing.T) {
	db, err := Open(testItems(2, 300, 20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Engine() != EngineScan {
		t.Errorf("default engine = %q", db.Engine())
	}
	if db.Len() != 300 || db.Dim() != 20 {
		t.Errorf("Len=%d Dim=%d", db.Len(), db.Dim())
	}
	// 32 KB / 20-d => 195 items per page => 2 pages.
	if db.NumPages() != 2 {
		t.Errorf("NumPages = %d, want 2", db.NumPages())
	}
	it, err := db.Item(7)
	if err != nil || it.ID != 7 {
		t.Errorf("Item(7) = %+v, %v", it, err)
	}
	if _, err := db.Item(999); err == nil {
		t.Error("out-of-range ID accepted")
	}
	if len(db.Items()) != 300 {
		t.Error("Items() wrong length")
	}
}

func TestQueryAgainstBruteForce(t *testing.T) {
	const dim = 5
	items := testItems(3, 400, dim)
	m := Euclidean()

	for _, kind := range []EngineKind{EngineScan, EngineXTree} {
		db, err := Open(items, Options{Engine: kind, PageCapacity: 16})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		for trial := 0; trial < 10; trial++ {
			q := make(Vector, dim)
			for j := range q {
				q[j] = rng.Float64()
			}
			got, stats, err := db.Query(q, KNNQuery(7))
			if err != nil {
				t.Fatal(err)
			}
			if stats.Queries != 1 {
				t.Errorf("stats.Queries = %d", stats.Queries)
			}
			type pair struct {
				id ItemID
				d  float64
			}
			all := make([]pair, len(items))
			for i := range items {
				all[i] = pair{items[i].ID, m.Distance(q, items[i].Vec)}
			}
			sort.Slice(all, func(a, b int) bool {
				if all[a].d != all[b].d {
					return all[a].d < all[b].d
				}
				return all[a].id < all[b].id
			})
			if len(got) != 7 {
				t.Fatalf("%s: got %d answers", kind, len(got))
			}
			for i := range got {
				if got[i].ID != all[i].id || math.Abs(got[i].Dist-all[i].d) > 1e-12 {
					t.Fatalf("%s trial %d: answer %d = %+v, want %+v", kind, trial, i, got[i], all[i])
				}
			}
		}
	}
}

func TestBatchIncrementalSemantics(t *testing.T) {
	items := testItems(5, 500, 6)
	db, err := Open(items, Options{Engine: EngineXTree, PageCapacity: 16, Avoidance: AvoidBoth})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]Query, 5)
	for i := range queries {
		queries[i] = Query{ID: uint64(i), Vec: items[i*31].Vec, Type: KNNQuery(4)}
	}
	b := db.NewBatch()
	res, stats, err := b.Query(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(queries) {
		t.Fatalf("got %d result sets", len(res))
	}
	// First query complete: compare to a direct single query.
	want, _, err := db.Query(queries[0].Vec, queries[0].Type)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != len(want) {
		t.Fatalf("first query %d answers, want %d", len(res[0]), len(want))
	}
	for i := range want {
		if res[0][i] != want[i] {
			t.Fatalf("first answer %d = %+v, want %+v", i, res[0][i], want[i])
		}
	}
	if stats.MatrixDistCalcs != int64(len(queries)*(len(queries)-1)/2) {
		t.Errorf("MatrixDistCalcs = %d", stats.MatrixDistCalcs)
	}
}

func TestBatchQueryAllSavesIO(t *testing.T) {
	items := testItems(6, 1000, 12)
	queries := make([]Query, 25)
	qi, err := dataset.SampleQueries(7, items, len(queries))
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range qi {
		queries[i] = Query{ID: uint64(it.ID), Vec: it.Vec, Type: KNNQuery(10)}
	}

	dbSingle, err := Open(items, Options{BufferPages: -1})
	if err != nil {
		t.Fatal(err)
	}
	var singleStats Stats
	for _, q := range queries {
		_, st, err := dbSingle.Query(q.Vec, q.Type)
		if err != nil {
			t.Fatal(err)
		}
		singleStats = singleStats.Add(st)
	}

	dbMulti, err := Open(items, Options{BufferPages: -1, Avoidance: AvoidBoth})
	if err != nil {
		t.Fatal(err)
	}
	_, multiStats, err := dbMulti.NewBatch().QueryAll(queries)
	if err != nil {
		t.Fatal(err)
	}

	if multiStats.PagesRead >= singleStats.PagesRead {
		t.Errorf("multi read %d pages, singles %d", multiStats.PagesRead, singleStats.PagesRead)
	}
	if multiStats.DistCalcs >= singleStats.DistCalcs {
		t.Errorf("multi computed %d distances, singles %d", multiStats.DistCalcs, singleStats.DistCalcs)
	}
	if multiStats.Avoided == 0 {
		t.Error("nothing avoided")
	}
}

func TestResetCountersAndIOStats(t *testing.T) {
	db, err := Open(testItems(8, 200, 4), Options{PageCapacity: 16, BufferPages: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Query(Vector{0.5, 0.5, 0.5, 0.5}, KNNQuery(3)); err != nil {
		t.Fatal(err)
	}
	if db.IOStats().Reads == 0 {
		t.Error("no reads recorded")
	}
	prev := db.ResetCounters()
	if prev.Reads == 0 {
		t.Error("ResetCounters returned empty stats")
	}
	if db.IOStats().Reads != 0 {
		t.Error("counters not reset")
	}
}

func TestMetricConstructors(t *testing.T) {
	a, b := Vector{0, 0}, Vector{3, 4}
	if Euclidean().Distance(a, b) != 5 {
		t.Error("Euclidean wrong")
	}
	if Manhattan().Distance(a, b) != 7 {
		t.Error("Manhattan wrong")
	}
	if Chebyshev().Distance(a, b) != 4 {
		t.Error("Chebyshev wrong")
	}
	mk, err := Minkowski(2)
	if err != nil || math.Abs(mk.Distance(a, b)-5) > 1e-12 {
		t.Errorf("Minkowski: %v %v", mk, err)
	}
	if _, err := Minkowski(0.5); err == nil {
		t.Error("bad Minkowski order accepted")
	}
	we, err := WeightedEuclidean(Vector{1, 1})
	if err != nil || we.Distance(a, b) != 5 {
		t.Errorf("WeightedEuclidean: %v", err)
	}
	hm, err := HistogramMatrix(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := QuadraticForm(4, hm); err != nil {
		t.Errorf("QuadraticForm: %v", err)
	}
}

func TestQueryTypeConstructors(t *testing.T) {
	if RangeQuery(0.5).Range != 0.5 {
		t.Error("RangeQuery wrong")
	}
	if KNNQuery(5).Cardinality != 5 {
		t.Error("KNNQuery wrong")
	}
	bk := BoundedKNNQuery(3, 0.7)
	if bk.Cardinality != 3 || bk.Range != 0.7 {
		t.Error("BoundedKNNQuery wrong")
	}
}

func TestMiningFacade(t *testing.T) {
	items, err := dataset.Clustered(dataset.ClusteredConfig{
		Seed: 9, N: 400, Dim: 4, Clusters: 3, Spread: 0.02, NoiseFraction: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(items, Options{PageCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}

	res, err := db.DBSCAN(0.1, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters < 2 {
		t.Errorf("DBSCAN found %d clusters", res.Clusters)
	}

	labels, _, err := db.ClassifyKNN([]Vector{items[0].Vec, items[100].Vec}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 2 {
		t.Errorf("labels = %v", labels)
	}

	if _, err := db.SimulateExploration(ExplorationConfig{Users: 2, K: 3, Rounds: 2, Seed: 1}); err != nil {
		t.Errorf("SimulateExploration: %v", err)
	}

	top, _, err := db.ProximityTopK([]ItemID{0, 1, 2}, 3, 4)
	if err != nil || len(top) != 3 {
		t.Errorf("ProximityTopK: %v %v", top, err)
	}
	if _, err := db.CommonFeatures([]ItemID{0, 1, 2}, 0.8); err != nil {
		t.Errorf("CommonFeatures: %v", err)
	}

	if _, _, err := db.DetectTrends(0, func(it Item) float64 { return it.Vec[0] }, TrendConfig{K: 3, Branch: 1, MaxLength: 4, MinR2: 0}, 4); err != nil {
		t.Errorf("DetectTrends: %v", err)
	}

	if _, _, err := db.AssociationRules(0, 0.15, 0.01, 0.0, 8); err != nil {
		t.Errorf("AssociationRules: %v", err)
	}

	// Explore / ExploreMultiple equivalence via the façade.
	count1, count2 := 0, 0
	hooks := func(c *int) Hooks {
		return Hooks{
			Proc2:     func(Item, []Answer) { *c++ },
			Condition: func(l, step int) bool { return l > 0 && step < 10 },
			Filter: func(_ Item, as []Answer) []ItemID {
				ids := make([]ItemID, 0, len(as))
				for _, a := range as {
					ids = append(ids, a.ID)
				}
				return ids
			},
		}
	}
	if _, err := db.Explore([]ItemID{0}, KNNQuery(3), hooks(&count1)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExploreMultiple([]ItemID{0}, KNNQuery(3), 4, hooks(&count2)); err != nil {
		t.Fatal(err)
	}
	if count1 != count2 || count1 != 10 {
		t.Errorf("explore counts: %d vs %d", count1, count2)
	}
}

// TestMiningRejectsUnknownIDs: an ItemID that names no object — as a start
// object, a cluster member, an analysed object, or a Filter result in the
// middle of a run — is an error from every mining entry point, never an
// index panic; a run the filter stops reports the steps it completed.
func TestMiningRejectsUnknownIDs(t *testing.T) {
	const n, bad = 50, ItemID(999)
	db, err := Open(testItems(12, n, 3), Options{PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	strays := Hooks{Filter: func(Item, []Answer) []ItemID { return []ItemID{1, bad} }}
	run := func(batch int, start []ItemID, hooks Hooks) (ExploreStats, error) {
		if batch == 1 {
			return db.Explore(start, KNNQuery(3), hooks)
		}
		return db.ExploreMultiple(start, KNNQuery(3), batch, hooks)
	}
	for _, batch := range []int{1, 4} {
		if st, err := run(batch, []ItemID{0, bad}, Hooks{}); err == nil || st.Steps != 0 {
			t.Errorf("batch %d: start ID %d: steps %d, err %v", batch, bad, st.Steps, err)
		}
		st, err := run(batch, []ItemID{0}, strays)
		if err == nil || st.Steps != 1 || st.Query.PagesRead == 0 {
			t.Errorf("batch %d: filter result %d: steps %d, pages read %d, err %v", batch, bad, st.Steps, st.Query.PagesRead, err)
		}
	}
	if _, _, err := db.ProximityTopK([]ItemID{0, bad}, 3, 4); err == nil {
		t.Errorf("ProximityTopK accepted cluster member %d", bad)
	}
	if _, err := db.CommonFeatures([]ItemID{2, bad}, 0.5); err == nil {
		t.Errorf("CommonFeatures accepted object %d", bad)
	}
	attr := func(it Item) float64 { return it.Vec[0] }
	if _, _, err := db.DetectTrends(bad, attr, TrendConfig{K: 3, Branch: 1, MaxLength: 3}, 4); err == nil {
		t.Errorf("DetectTrends accepted start %d", bad)
	}
}

func TestClusterFacade(t *testing.T) {
	items := testItems(10, 400, 4)
	if _, err := OpenCluster(items, ClusterOptions{Servers: 0}); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := OpenCluster(items, ClusterOptions{Servers: 2, Engine: "weird"}); err == nil {
		t.Error("unknown engine accepted")
	}
	c, err := OpenCluster(items, ClusterOptions{Servers: 4, Engine: EngineXTree, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if c.Servers() != 4 {
		t.Errorf("Servers = %d", c.Servers())
	}

	db, err := Open(items, Options{PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	q := items[11].Vec
	want, _, err := db.Query(q, KNNQuery(5))
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := c.Query(q, KNNQuery(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerServer) != 4 {
		t.Errorf("report servers = %d", len(rep.PerServer))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parallel answer %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	batch := []Query{
		{ID: 1, Vec: items[3].Vec, Type: KNNQuery(3)},
		{ID: 2, Vec: items[4].Vec, Type: RangeQuery(0.3)},
	}
	res, _, err := c.QueryAll(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || len(res[0]) != 3 {
		t.Errorf("QueryAll results: %d sets, first has %d", len(res), len(res[0]))
	}
}

func TestVAFileEngineFacade(t *testing.T) {
	items := testItems(11, 500, 6)
	dbVA, err := Open(items, Options{Engine: EngineVAFile, PageCapacity: 16, VAFileBits: 6})
	if err != nil {
		t.Fatal(err)
	}
	if dbVA.Engine() != EngineVAFile {
		t.Errorf("Engine = %q", dbVA.Engine())
	}
	dbScan, err := Open(items, Options{Engine: EngineScan, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}

	q := items[123].Vec
	want, scanStats, err := dbScan.Query(q, KNNQuery(8))
	if err != nil {
		t.Fatal(err)
	}
	got, vaStats, err := dbVA.Query(q, KNNQuery(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("VA-file %d answers, scan %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if vaStats.PagesRead >= scanStats.PagesRead {
		t.Errorf("VA-file read %d pages, scan %d — approximations gave no selectivity", vaStats.PagesRead, scanStats.PagesRead)
	}

	// Batched queries over the VA-file.
	queries := []Query{
		{ID: 1, Vec: items[3].Vec, Type: KNNQuery(5)},
		{ID: 2, Vec: items[4].Vec, Type: RangeQuery(0.4)},
	}
	res, _, err := dbVA.NewBatch().QueryAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != 5 {
		t.Errorf("batched VA-file kNN returned %d answers", len(res[0]))
	}

	// VA-file servers in a cluster.
	c, err := OpenCluster(items, ClusterOptions{Servers: 3, Engine: EngineVAFile, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	pgot, _, err := c.Query(q, KNNQuery(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if pgot[i] != want[i] {
			t.Fatalf("parallel VA-file answer %d: %+v vs %+v", i, pgot[i], want[i])
		}
	}
}

func TestSTRBulkLoadFacade(t *testing.T) {
	items := testItems(12, 600, 5)
	db, err := Open(items, Options{
		Engine: EngineXTree, PageCapacity: 16,
		XTree: &XTreeOptions{STRBulkLoad: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// STR packs pages full.
	if want := (600 + 15) / 16; db.NumPages() != want {
		t.Errorf("STR pages = %d, want %d", db.NumPages(), want)
	}
	got, _, err := db.Query(items[50].Vec, KNNQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != 50 || got[0].Dist != 0 {
		t.Errorf("1-NN of stored object = %+v", got[0])
	}
}

func TestRankingFacade(t *testing.T) {
	items := testItems(13, 300, 4)
	db, err := Open(items, Options{Engine: EngineXTree, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.Ranking(items[7].Vec)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = -1
	for i := 0; i < 25; i++ {
		a, ok, err := r.Next()
		if err != nil || !ok {
			t.Fatalf("ranking stopped at %d: %v", i, err)
		}
		if a.Dist < prev {
			t.Fatalf("ranking not ascending at %d", i)
		}
		prev = a.Dist
		if i == 0 && (a.ID != 7 || a.Dist != 0) {
			t.Fatalf("first ranked object = %+v, want the query object itself", a)
		}
	}
}

func TestAdvise(t *testing.T) {
	lowDim, err := dataset.NearUniform(60, 1500, 20, 6, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Advise(lowDim, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine != EngineXTree {
		t.Errorf("intrinsic-6 data recommended %q (est %.1f): %s", a.Engine, a.IntrinsicDim, a.Reason)
	}
	if a.AmbientDim != 20 || a.Reason == "" {
		t.Errorf("Advice = %+v", a)
	}

	highDim := testItems(61, 1500, 32) // i.i.d. uniform: intrinsic ≈ ambient
	b, err := Advise(highDim, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Engine == EngineXTree {
		t.Errorf("32-d i.i.d. data recommended a tree index (est %.1f)", b.IntrinsicDim)
	}
	if b.IntrinsicDim <= a.IntrinsicDim {
		t.Errorf("intrinsic estimates not ordered: %.1f vs %.1f", b.IntrinsicDim, a.IntrinsicDim)
	}

	// Degenerate data falls back to the scan without erroring.
	dup := make([]Item, 50)
	for i := range dup {
		dup[i] = Item{ID: ItemID(i), Vec: Vector{1, 2}}
	}
	c, err := Advise(dup, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine != EngineScan {
		t.Errorf("degenerate data recommended %q", c.Engine)
	}

	if _, err := Advise(nil, 1); err == nil {
		t.Error("empty database accepted")
	}
}

func TestConcurrentSingleQueries(t *testing.T) {
	items := testItems(70, 800, 5)
	db, err := Open(items, Options{Engine: EngineXTree, PageCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.Query(items[5].Vec, KNNQuery(4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, _, err := db.Query(items[5].Vec, KNNQuery(4))
				if err != nil {
					errs[g] = err
					return
				}
				for j := range want {
					if got[j] != want[j] {
						errs[g] = fmt.Errorf("goroutine %d: answer %d diverged", g, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMalformedQueryVectors: a query object of the wrong dimension, or with
// a NaN or infinite coordinate, is an error on every entry point of every
// engine — in memory and served from storage — and leaves the database
// answering. (Wrong dimensions used to panic in the distance kernels.)
func TestMalformedQueryVectors(t *testing.T) {
	const dim, n, capacity = 4, 200, 16
	items := testItems(71, n, dim)
	dir := storedDir(t, 71, n, dim, capacity)
	good := Vector{0.5, 0.5, 0.5, 0.5}
	bad := map[string]Vector{
		"short": {1, 2},
		"long":  {0, 0, 0, 0, 0},
		"nan":   {0.5, math.NaN(), 0.5, 0.5},
		"inf":   {0.5, 0.5, math.Inf(-1), 0.5},
	}
	for _, kind := range []EngineKind{EngineScan, EngineXTree, EngineVAFile, EnginePivot, EnginePMTree} {
		opts := Options{Engine: kind, PageCapacity: capacity, BufferPages: 4}
		mem, err := Open(items, opts)
		if err != nil {
			t.Fatal(err)
		}
		stored, err := OpenStored(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer stored.Close() //nolint:errcheck // read-only
		for where, db := range map[string]*DB{"memory": mem, "stored": stored} {
			for name, v := range bad {
				t.Run(fmt.Sprintf("%s/%s/%s", kind, where, name), func(t *testing.T) {
					if _, _, err := db.Query(v, KNNQuery(3)); err == nil {
						t.Error("Query accepted the vector")
					}
					batch := []Query{
						{ID: 1, Vec: good, Type: KNNQuery(3)},
						{ID: 2, Vec: v, Type: RangeQuery(0.3)},
					}
					if _, _, err := db.NewBatch().Query(batch); err == nil {
						t.Error("Batch.Query accepted the vector")
					}
					if _, _, err := db.NewBatch().QueryAll(batch); err == nil {
						t.Error("Batch.QueryAll accepted the vector")
					}
					if _, err := db.Explain(batch); err == nil {
						t.Error("Explain accepted the vector")
					}
					if _, err := db.Ranking(v); err == nil {
						t.Error("Ranking accepted the vector")
					}
					if answers, _, err := db.Query(good, KNNQuery(3)); err != nil || len(answers) != 3 {
						t.Errorf("valid query afterwards: %d answers, err %v", len(answers), err)
					}
				})
			}
		}
	}
}
