package explore

import (
	"encoding/binary"
	"errors"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"testing"

	"metricdb/internal/dataset"
	"metricdb/internal/engine"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
	"metricdb/internal/xtree"
)

func newConfig(t *testing.T, items []store.Item, simType query.Type, batch int) Config {
	t.Helper()
	e, err := scan.New(items, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := msq.New(e, vec.Euclidean{}, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Config{Proc: p, Items: items, SimType: simType, BatchSize: batch}
}

func TestConfigValidate(t *testing.T) {
	items := dataset.Uniform(1, 20, 2)
	cfg := newConfig(t, items, query.NewKNN(3), 4)
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := cfg
	bad.Proc = nil
	if bad.Validate() == nil {
		t.Error("nil processor accepted")
	}
	bad2 := cfg
	bad2.SimType = query.NewKNN(0)
	if bad2.Validate() == nil {
		t.Error("invalid sim type accepted")
	}
	// IDs must equal indexes.
	swapped := append([]store.Item(nil), items...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	bad3 := cfg
	bad3.Items = swapped
	if bad3.Validate() == nil {
		t.Error("misnumbered items accepted")
	}
}

// TestRunEquivalence checks the paper's central framework claim: the
// transformed multiple-query scheme computes exactly the same exploration
// as the single-query scheme.
func TestRunEquivalence(t *testing.T) {
	items := dataset.Uniform(2, 300, 4)
	hooks := func(visited *[]store.ItemID) Hooks {
		return Hooks{
			Proc2: func(obj store.Item, answers []query.Answer) {
				*visited = append(*visited, obj.ID)
			},
			Filter: func(obj store.Item, answers []query.Answer) []store.ItemID {
				var out []store.ItemID
				for _, a := range answers {
					if a.Dist <= 0.2 {
						out = append(out, a.ID)
					}
				}
				return out
			},
			Condition: func(controlLen, step int) bool {
				return controlLen > 0 && step < 40
			},
		}
	}

	var visitedSingle []store.ItemID
	cfg1 := newConfig(t, items, query.NewKNN(5), 0)
	s1, err := Run(cfg1, []store.ItemID{0, 7}, hooks(&visitedSingle))
	if err != nil {
		t.Fatal(err)
	}

	var visitedMulti []store.ItemID
	cfg2 := newConfig(t, items, query.NewKNN(5), 6)
	s2, err := RunMultiple(cfg2, []store.ItemID{0, 7}, hooks(&visitedMulti))
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(visitedSingle, visitedMulti) {
		t.Fatalf("exploration orders differ:\nsingle %v\nmulti  %v", visitedSingle, visitedMulti)
	}
	if s1.Steps != s2.Steps {
		t.Errorf("steps differ: %d vs %d", s1.Steps, s2.Steps)
	}
	// The multiple form must not cost more I/O than the single form.
	if s2.Query.PagesRead > s1.Query.PagesRead {
		t.Errorf("multiple form read more pages (%d) than single (%d)", s2.Query.PagesRead, s1.Query.PagesRead)
	}
}

func TestRunMultipleDegeneratesToRun(t *testing.T) {
	items := dataset.Uniform(3, 100, 3)
	cfg := newConfig(t, items, query.NewKNN(3), 1)
	var steps int
	_, err := RunMultiple(cfg, []store.ItemID{0}, Hooks{
		Proc2: func(store.Item, []query.Answer) { steps++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if steps != 1 {
		t.Errorf("steps = %d", steps)
	}
}

func TestControlListNoDuplicates(t *testing.T) {
	items := dataset.Uniform(1, 4, 2)
	c := newControlList(Config{Items: items, SimType: query.NewKNN(2)}, []store.ItemID{1, 2, 1})
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
	c.push(2)
	if c.len() != 2 {
		t.Error("duplicate enqueued")
	}
	if got := c.pop(); got != 1 {
		t.Errorf("pop = %d", got)
	}
	c.push(1) // was seen before: must stay out
	c.push(3)
	if p := c.pending(); len(p) != 2 || p[0].ID != 2 || p[1].ID != 3 || &p[1].Vec[0] != &items[3].Vec[0] {
		t.Errorf("pending %v, want the queries of objects 2 and 3 only", p)
	}
}

// bruteDBSCAN is an independent reference implementation over a distance
// matrix.
func bruteDBSCAN(items []store.Item, eps float64, minPts int) []int {
	n := len(items)
	m := vec.Euclidean{}
	nbrs := make([][]store.ItemID, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if m.Distance(items[i].Vec, items[j].Vec) <= eps {
				nbrs[i] = append(nbrs[i], store.ItemID(j))
			}
		}
	}
	labels := make([]int, n)
	cluster := 0
	for i := 0; i < n; i++ {
		if labels[i] != 0 {
			continue
		}
		if len(nbrs[i]) < minPts {
			labels[i] = Noise
			continue
		}
		cluster++
		labels[i] = cluster
		queue := append([]store.ItemID(nil), nbrs[i]...)
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			if labels[id] == Noise {
				labels[id] = cluster
			}
			if labels[id] != 0 {
				continue
			}
			labels[id] = cluster
			if len(nbrs[id]) >= minPts {
				queue = append(queue, nbrs[id]...)
			}
		}
	}
	return labels
}

// referenceClusters is the DBSCAN tests' dataset: three tight clusters in
// the unit square and 5 % noise, clustered with eps 0.08 and minPts 4.
func referenceClusters(t *testing.T) []store.Item {
	t.Helper()
	items, err := dataset.Clustered(dataset.ClusteredConfig{
		Seed: 4, N: 400, Dim: 2, Clusters: 3, Spread: 0.02, NoiseFraction: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return items
}

func TestDBSCANMatchesReference(t *testing.T) {
	items := referenceClusters(t)
	const eps, minPts = 0.08, 4

	cfg := newConfig(t, items, query.Type{}, 8)
	res, err := DBSCAN(cfg, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteDBSCAN(items, eps, minPts)

	// Cluster IDs may be permuted; compare the partitions.
	if !samePartition(res.Labels, want) {
		t.Error("DBSCAN partition differs from reference")
	}
	if res.Clusters < 2 {
		t.Errorf("found %d clusters, expected the generated 3 (possibly merged)", res.Clusters)
	}
	if res.Stats.Query.PagesRead == 0 || res.Stats.Steps == 0 {
		t.Error("no work recorded")
	}
}

// entryOrder wraps an engine and hashes the objects whose queries it
// prepares, in order: a session prepares a query once, when it first enters
// a batch, so the hash is the order in which a job's queries enter its
// window.
type entryOrder struct {
	engine.Engine
	ids map[*float64]store.ItemID // a query's vector → its object
	h   hash.Hash64
}

func (e *entryOrder) Prepare(q vec.Vector) engine.PreparedQuery {
	binary.Write(e.h, binary.LittleEndian, int64(e.ids[&q[0]])) //nolint:errcheck
	return e.Engine.Prepare(q)
}

// TestDBSCANBatchSizesAgree: the batch size changes which queries share a
// page, never the clustering — the labels, cluster numbers included, are
// equal for every m on the scan and on an X-tree, not merely the same
// partition — and never the seed walk: on the X-tree every object's query
// enters the window once, in the same order for every m. The digests of the
// labels and of that order are pinned, so a walk that visits the seeds in
// another order fails here even when it finds the same clusters; so are the
// X-tree jobs' counters, which follow which seeds ride along in each call.
func TestDBSCANBatchSizesAgree(t *testing.T) {
	items := referenceClusters(t)
	const eps, minPts = 0.08, 4
	const labelDigest, entryDigest = 0x386b0342e71f7e8f, 0xb7d7d2b080b170b9
	// A range query visits the pages its ε-ball reaches whoever it rides
	// with, so only the pages read depend on m.
	golden := map[int][4]int64{ // m → steps, pages read, page visits, distance calculations
		1:  {400, 4732, 4732, 52674},
		2:  {400, 2400, 4732, 52674},
		8:  {400, 652, 4732, 52674},
		50: {400, 160, 4732, 52674},
	}
	tr, err := xtree.Bulk(items, 2, xtree.Config{LeafCapacity: 16, DirFanout: 8, BufferPages: 0})
	if err != nil {
		t.Fatal(err)
	}
	rec := &entryOrder{Engine: tr, ids: make(map[*float64]store.ItemID, len(items))}
	for _, it := range items {
		rec.ids[&it.Vec[0]] = it.ID
	}
	p, err := msq.New(rec, vec.Euclidean{}, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for _, m := range []int{1, 2, 8, 50} {
		for _, cfg := range []Config{newConfig(t, items, query.Type{}, m), {Proc: p, Items: items, BatchSize: m}} {
			rec.h = fnv.New64a()
			res, err := DBSCAN(cfg, eps, minPts)
			if err != nil {
				t.Fatal(err)
			}
			name := cfg.Proc.Engine().Name()
			if want == nil {
				want = res.Labels
				h := fnv.New64a()
				for _, l := range want {
					binary.Write(h, binary.LittleEndian, int64(l)) //nolint:errcheck
				}
				if got := h.Sum64(); got != labelDigest {
					t.Errorf("label digest %#x, want %#x", got, uint64(labelDigest))
				}
			} else if !slices.Equal(res.Labels, want) {
				t.Errorf("%s, m = %d: the labels differ from the scan's at m = 1", name, m)
			}
			if name != "xtree" {
				continue
			}
			if got := rec.h.Sum64(); got != entryDigest {
				t.Errorf("m = %d: the queries entered in an order with digest %#x, want %#x", m, got, uint64(entryDigest))
			}
			q := res.Stats.Query
			got := [4]int64{int64(res.Stats.Steps), q.PagesRead, q.PageVisits, q.DistCalcs}
			if got != golden[m] {
				t.Errorf("m = %d: steps, pages read, page visits, distance calculations %v, want %v", m, got, golden[m])
			}
		}
	}
}

// samePartition checks that two labelings induce the same grouping, with
// noise (-1) required to match exactly.
func samePartition(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[int]int)
	rev := make(map[int]int)
	for i := range a {
		if (a[i] == Noise) != (b[i] == Noise) {
			return false
		}
		if a[i] == Noise {
			continue
		}
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if y, ok := rev[b[i]]; ok && y != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

func TestDBSCANValidation(t *testing.T) {
	items := dataset.Uniform(5, 50, 2)
	cfg := newConfig(t, items, query.Type{}, 4)
	if _, err := DBSCAN(cfg, 0.1, 0); err == nil {
		t.Error("minPts 0 accepted")
	}
	if _, err := DBSCAN(cfg, -1, 3); err == nil {
		t.Error("negative eps accepted")
	}
}

func TestClassifyKNN(t *testing.T) {
	items, err := dataset.Clustered(dataset.ClusteredConfig{
		Seed: 6, N: 600, Dim: 8, Clusters: 4, Spread: 0.03,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := newConfig(t, items, query.Type{}, 10)

	// Classify perturbed copies of known items; the majority of the
	// predictions must recover the generating cluster.
	const probes = 40
	objects := make([]vec.Vector, probes)
	truth := make([]int, probes)
	for i := 0; i < probes; i++ {
		src := items[i*7]
		v := src.Vec.Clone()
		v[0] += 0.001
		objects[i] = v
		truth[i] = src.Label
	}
	labels, stats, err := ClassifyKNN(cfg, objects, 5)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range labels {
		if labels[i] == truth[i] {
			correct++
		}
	}
	if correct < probes*8/10 {
		t.Errorf("only %d/%d classified correctly", correct, probes)
	}
	if stats.Steps != probes {
		t.Errorf("steps = %d, want %d", stats.Steps, probes)
	}
	if _, _, err := ClassifyKNN(cfg, objects, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestSimulateExploration(t *testing.T) {
	items, err := dataset.Clustered(dataset.ClusteredConfig{
		Seed: 7, N: 500, Dim: 6, Clusters: 4, Spread: 0.04,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := xtree.Bulk(items, 6, xtree.Config{LeafCapacity: 16, DirFanout: 8, BufferPages: 0})
	if err != nil {
		t.Fatal(err)
	}
	p, err := msq.New(tr, vec.Euclidean{}, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Proc: p, Items: items, SimType: query.Type{}, BatchSize: 0}

	stats, err := SimulateExploration(cfg, ExplorationConfig{Users: 3, K: 5, Rounds: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps == 0 || stats.Query.PagesRead == 0 {
		t.Errorf("no work recorded: %+v", stats)
	}

	bad := []ExplorationConfig{
		{Users: 0, K: 5, Rounds: 1},
		{Users: 1, K: 0, Rounds: 1},
		{Users: 1, K: 5, Rounds: 0},
	}
	for _, ec := range bad {
		if _, err := SimulateExploration(cfg, ec); err == nil {
			t.Errorf("config %+v accepted", ec)
		}
	}
}

func TestProximityTopK(t *testing.T) {
	// Plant a tight cluster at the origin corner and a few known nearby
	// outsiders.
	var items []store.Item
	addAt := func(x, y float64, label int) store.ItemID {
		id := store.ItemID(len(items))
		items = append(items, store.Item{ID: id, Vec: vec.Vector{x, y}, Label: label})
		return id
	}
	var clusterIDs []store.ItemID
	for i := 0; i < 5; i++ {
		clusterIDs = append(clusterIDs, addAt(0.01*float64(i), 0.0, 1))
	}
	near := addAt(0.1, 0.0, 0)
	mid := addAt(0.3, 0.0, 0)
	for i := 0; i < 30; i++ {
		addAt(0.8+0.005*float64(i), 0.9, 0)
	}

	cfg := newConfig(t, items, query.Type{}, 8)
	top, stats, err := ProximityTopK(cfg, clusterIDs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("got %d answers", len(top))
	}
	if top[0].ID != near || top[1].ID != mid {
		t.Errorf("top-2 = %v, want [%d %d]", top, near, mid)
	}
	if math.Abs(top[0].Dist-0.06) > 1e-9 {
		t.Errorf("closest distance %v, want 0.06 (min over members)", top[0].Dist)
	}
	if stats.Steps != len(clusterIDs) {
		t.Errorf("steps = %d", stats.Steps)
	}

	if _, _, err := ProximityTopK(cfg, nil, 2); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, _, err := ProximityTopK(cfg, clusterIDs, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestCommonFeatures(t *testing.T) {
	// Dimension 0 is identical among the selected items, dimension 1 varies.
	items := []store.Item{
		{ID: 0, Vec: vec.Vector{0.5, 0.1}},
		{ID: 1, Vec: vec.Vector{0.5, 0.9}},
		{ID: 2, Vec: vec.Vector{0.5, 0.4}},
		{ID: 3, Vec: vec.Vector{0.1, 0.2}},
		{ID: 4, Vec: vec.Vector{0.9, 0.7}},
	}
	fs, err := CommonFeatures(items, []store.ItemID{0, 1, 2}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !fs[0].Common {
		t.Error("constant dimension not flagged common")
	}
	if fs[1].Common {
		t.Error("varying dimension flagged common")
	}
	if _, err := CommonFeatures(items, nil, 0.5); err == nil {
		t.Error("empty selection accepted")
	}
	if _, err := CommonFeatures(items, []store.ItemID{0}, 0); err == nil {
		t.Error("zero ratio accepted")
	}
	if _, err := CommonFeatures(items, []store.ItemID{0, 1, 2}, math.NaN()); err == nil {
		t.Error("NaN ratio accepted")
	}
}

func TestDetectTrends(t *testing.T) {
	// A 1-d chain with linearly increasing attribute: a perfect trend.
	var items []store.Item
	for i := 0; i < 30; i++ {
		items = append(items, store.Item{
			ID:    store.ItemID(i),
			Vec:   vec.Vector{float64(i) * 0.1, 0},
			Label: i, // attribute = index
		})
	}
	cfg := newConfig(t, items, query.Type{}, 4)
	attr := func(it store.Item) float64 { return float64(it.Label) }

	trends, stats, err := DetectTrends(cfg, 0, attr, TrendConfig{K: 2, Branch: 1, MaxLength: 6, MinR2: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(trends) == 0 {
		t.Fatal("no trend found on perfectly linear data")
	}
	tr := trends[0]
	if tr.Slope <= 0 {
		t.Errorf("slope = %v, want positive", tr.Slope)
	}
	if tr.R2 < 0.9 {
		t.Errorf("R2 = %v", tr.R2)
	}
	if len(tr.Path) < 3 || tr.Path[0] != 0 {
		t.Errorf("path = %v", tr.Path)
	}
	if stats.Steps == 0 {
		t.Error("no steps recorded")
	}

	if _, _, err := DetectTrends(cfg, 0, nil, TrendConfig{K: 2, Branch: 1, MaxLength: 3}); err == nil {
		t.Error("nil attribute accepted")
	}
	if _, _, err := DetectTrends(cfg, 0, attr, TrendConfig{K: 2, Branch: 5, MaxLength: 3}); err == nil {
		t.Error("Branch > K accepted")
	}
}

func TestLinearRegression(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	slope, intercept, r2 := linearRegression(xs, ys)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 || math.Abs(r2-1) > 1e-12 {
		t.Errorf("fit = %v, %v, %v", slope, intercept, r2)
	}
	// Degenerate x.
	s2, _, r22 := linearRegression([]float64{1, 1}, []float64{0, 5})
	if s2 != 0 || r22 != 0 {
		t.Errorf("degenerate fit = %v, %v", s2, r22)
	}
	// Constant y.
	_, _, r23 := linearRegression([]float64{0, 1, 2}, []float64{4, 4, 4})
	if r23 != 1 {
		t.Errorf("constant-y R2 = %v", r23)
	}
}

func TestSpatialAssociationRules(t *testing.T) {
	// Towns (label 1) planted right next to lakes (label 2); factories
	// (label 3) far away.
	var items []store.Item
	add := func(x, y float64, label int) {
		items = append(items, store.Item{ID: store.ItemID(len(items)), Vec: vec.Vector{x, y}, Label: label})
	}
	for i := 0; i < 10; i++ {
		x := float64(i) * 0.5
		add(x, 0, 1)      // town
		add(x+0.01, 0, 2) // lake next to it
	}
	for i := 0; i < 5; i++ {
		add(float64(i)*0.5, 5, 3) // factories far away
	}

	cfg := newConfig(t, items, query.Type{}, 6)
	rules, stats, err := SpatialAssociationRules(cfg, 1, 0.05, 0.6, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 {
		t.Fatalf("rules = %+v, want exactly town→lake", rules)
	}
	r := rules[0]
	if r.From != 1 || r.To != 2 {
		t.Errorf("rule = %+v", r)
	}
	if r.Support < 0.99 {
		t.Errorf("support = %v, want 1.0 (every town has a lake)", r.Support)
	}
	if stats.Steps != 10 {
		t.Errorf("steps = %d", stats.Steps)
	}

	if _, _, err := SpatialAssociationRules(cfg, 99, 0.05, 0.5, 0.1); err == nil {
		t.Error("unknown type accepted")
	}
	if _, _, err := SpatialAssociationRules(cfg, 1, 0.05, 2, 0.1); err == nil {
		t.Error("bad threshold accepted")
	}
}

func TestExplorationSurfacesDiskErrors(t *testing.T) {
	items := dataset.Uniform(30, 200, 3)
	cfg := newConfig(t, items, query.NewKNN(3), 4)
	boom := errors.New("boom")
	cfg.Proc.Engine().Pager().Disk().(*store.Disk).FailOn(func(pid store.PageID) error {
		if pid >= 2 {
			return boom
		}
		return nil
	})
	if _, err := Run(cfg, []store.ItemID{0}, Hooks{}); !errors.Is(err, boom) {
		t.Errorf("Run did not surface the disk error: %v", err)
	}
	if _, err := RunMultiple(cfg, []store.ItemID{0}, Hooks{}); !errors.Is(err, boom) {
		t.Errorf("RunMultiple did not surface the disk error: %v", err)
	}
	if _, err := DBSCAN(cfg, 0.2, 3); !errors.Is(err, boom) {
		t.Errorf("DBSCAN did not surface the disk error: %v", err)
	}
	if _, _, err := ClassifyKNN(cfg, []vec.Vector{items[0].Vec}, 3); !errors.Is(err, boom) {
		t.Errorf("ClassifyKNN did not surface the disk error: %v", err)
	}
	if _, err := SimulateExploration(cfg, ExplorationConfig{Users: 1, K: 2, Rounds: 1, Seed: 1}); !errors.Is(err, boom) {
		t.Errorf("SimulateExploration did not surface the disk error: %v", err)
	}
	if _, _, err := ProximityTopK(cfg, []store.ItemID{0, 1}, 2); !errors.Is(err, boom) {
		t.Errorf("ProximityTopK did not surface the disk error: %v", err)
	}
}
