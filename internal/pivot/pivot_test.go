package pivot

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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
	items := testItems(1, 50, 4)
	if _, err := New(nil, Config{PageCapacity: 8}); err == nil {
		t.Error("empty database accepted")
	}
	if _, err := New(items, Config{}); err == nil {
		t.Error("zero page capacity accepted")
	}
	e, err := New(items, Config{PageCapacity: 8, Pivots: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "pivot" {
		t.Errorf("Name = %q", e.Name())
	}
	if e.NumItems() != 50 || e.NumPages() != 7 {
		t.Errorf("NumItems=%d NumPages=%d", e.NumItems(), e.NumPages())
	}
	for pid, want := range map[store.PageID]int{0: 8, 6: 2} {
		p, err := e.ReadPage(pid)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Items) != want {
			t.Errorf("page %d holds %d items, want %d", pid, len(p.Items), want)
		}
		e.Pager().Release(p)
	}
	if d := e.Describe(); d.Pivots != 4 || d.PageCapacity != 8 {
		t.Errorf("Describe = %+v", d)
	}
	// Pivot count above the item count is clamped.
	e2, err := New(items[:3], Config{PageCapacity: 8, Pivots: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Table().NumPivots(); got != 3 {
		t.Errorf("clamped pivot count = %d, want 3", got)
	}
}

// TestBuildDeterminism: the construction must be bit-reproducible, because
// a persisted table claims equality with a rebuild.
func TestBuildDeterminism(t *testing.T) {
	items := testItems(2, 400, 6)
	lens := []int{100, 100, 100, 100}
	a, err := BuildTable(items, lens, 8, vec.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildTable(items, lens, 8, vec.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	ea, err := EncodeTable(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := EncodeTable(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Error("two builds over the same items differ")
	}
	if a.BuildDistCalcs != int64(8*len(items)) {
		t.Errorf("BuildDistCalcs = %d, want %d", a.BuildDistCalcs, 8*len(items))
	}
}

// TestBoundsSafety property-tests the load-bearing contract: for every
// page, MinDist ≤ the true distance of every item on the page. This is
// exactly the soundness of the |d(q,p) − d(p,o)| filter.
func TestBoundsSafety(t *testing.T) {
	const dim = 5
	for _, metric := range []vec.Metric{vec.Euclidean{}, vec.Manhattan{}, vec.Chebyshev{}} {
		items := testItems(3, 300, dim)
		e, err := New(items, Config{PageCapacity: 16, Pivots: 8, Metric: metric})
		if err != nil {
			t.Fatal(err)
		}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			q := make(vec.Vector, dim)
			for d := range q {
				q[d] = rng.Float64()*1.5 - 0.25 // partly outside the data range
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

// TestPlan checks ordering, duplicate-freedom, and the filter contract: a
// page is omitted only if its lower bound exceeds the query distance.
func TestPlan(t *testing.T) {
	const dim = 4
	items := testItems(4, 500, dim)
	e, err := New(items, Config{PageCapacity: 16, Pivots: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := vec.Vector{0.9, 0.1, 0.4, 0.7}
	pq := e.Prepare(q)

	full := pq.Plan(math.Inf(1))
	if len(full) != e.NumPages() {
		t.Fatalf("unbounded plan has %d pages, want %d", len(full), e.NumPages())
	}
	if !sort.SliceIsSorted(full, func(i, j int) bool {
		if full[i].MinDist != full[j].MinDist {
			return full[i].MinDist < full[j].MinDist
		}
		return full[i].ID < full[j].ID
	}) {
		t.Error("plan not in ascending (MinDist, ID) order")
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

	const eps = 0.35
	tight := pq.Plan(eps)
	inPlan := map[store.PageID]bool{}
	for _, ref := range tight {
		inPlan[ref.ID] = true
	}
	for pid := 0; pid < e.NumPages(); pid++ {
		id := store.PageID(pid)
		if lb := pq.MinDist(id); (lb <= eps) != inPlan[id] {
			t.Errorf("page %d: lb=%v eps=%v inPlan=%v", pid, lb, eps, inPlan[id])
		}
	}
	if len(tight) == len(full) {
		t.Error("tight range query pruned nothing — pivot filter powerless on uniform 4-d data")
	}
}

// TestPivotDistCalcs: Prepare pays exactly one distance per pivot, probes
// pay none.
func TestPivotDistCalcs(t *testing.T) {
	items := testItems(5, 200, 4)
	e, err := New(items, Config{PageCapacity: 16, Pivots: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.PivotDistCalcs(); got != 0 {
		t.Fatalf("PivotDistCalcs before any Prepare = %d", got)
	}
	pq := e.Prepare(items[0].Vec)
	if got := e.PivotDistCalcs(); got != 8 {
		t.Fatalf("PivotDistCalcs after Prepare = %d, want 8", got)
	}
	pq.Plan(math.Inf(1))
	pq.MinDist(0)
	if got := e.PivotDistCalcs(); got != 8 {
		t.Fatalf("PivotDistCalcs after probes = %d, want 8 (probes must be arithmetic-only)", got)
	}
	e.Prepare(items[1].Vec)
	if got := e.PivotDistCalcs(); got != 16 {
		t.Fatalf("PivotDistCalcs after second Prepare = %d, want 16", got)
	}
}

// TestQueriesMatchScan: answers must be bit-identical to the sequential
// scan for both query types.
func TestQueriesMatchScan(t *testing.T) {
	const dim = 6
	items := testItems(6, 800, dim)
	pe, err := New(items, Config{PageCapacity: 16, Pivots: 12})
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
		ap, stp, err := pp.Single(q, typ)
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
		if stp.PivotDistCalcs != 12 {
			t.Fatalf("trial %d: PivotDistCalcs = %d, want 12", trial, stp.PivotDistCalcs)
		}
	}
}

// TestStoredRoundTrip: persist a table, reload it, and serve bit-identical
// bounds through NewStored without a rebuild.
func TestStoredRoundTrip(t *testing.T) {
	const dim = 5
	items := testItems(8, 300, dim)
	e, err := New(items, Config{PageCapacity: 16, Pivots: 8})
	if err != nil {
		t.Fatal(err)
	}
	tab := e.Table()
	tab.Generation = 42

	dir := t.TempDir()
	if err := WriteTableFile(dir, tab); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTableFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Generation != 42 || loaded.Items != 300 || loaded.Dim != dim {
		t.Fatalf("loaded provenance: %+v", loaded)
	}
	eb, _ := EncodeTable(tab)
	lb, _ := EncodeTable(loaded)
	if !bytes.Equal(eb, lb) {
		t.Fatal("loaded table re-encodes differently")
	}

	// A stored engine over the same pager and the loaded table answers
	// identically.
	lens := make([]int, e.NumPages()) // New paginates 16 items a page
	for i := range lens {
		lens[i] = min(16, e.NumItems()-16*i)
	}
	se, err := NewStored(e.Pager(), loaded, vec.Euclidean{}, e.NumItems(), lens, 16)
	if err != nil {
		t.Fatal(err)
	}
	q := items[17].Vec
	a, b := e.Prepare(q), se.Prepare(q)
	for pid := 0; pid < e.NumPages(); pid++ {
		id := store.PageID(pid)
		if a.MinDist(id) != b.MinDist(id) {
			t.Fatalf("page %d: stored bounds differ", pid)
		}
	}

	// Mismatched provenance is rejected.
	if _, err := NewStored(e.Pager(), loaded, vec.Manhattan{}, e.NumItems(), lens, 16); err == nil {
		t.Error("wrong metric accepted")
	}
	if _, err := NewStored(e.Pager(), loaded, vec.Euclidean{}, e.NumItems()+1, lens, 16); err == nil {
		t.Error("wrong item count accepted")
	}
	if _, err := NewStored(e.Pager(), loaded, vec.Euclidean{}, e.NumItems(), lens[:len(lens)-1], 16); err == nil {
		t.Error("wrong page count accepted")
	}
}

// TestDecodeRejectsCorruption: every single-byte flip of a valid record
// must be detected (CRC or structural validation), never panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	items := testItems(9, 60, 3)
	tab, err := BuildTable(items, []int{20, 20, 20}, 4, vec.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	body, err := EncodeTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTable(body); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	for i := 0; i < len(body); i++ {
		mut := append([]byte(nil), body...)
		mut[i] ^= 0x40
		if _, err := DecodeTable(mut); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
	// Truncations at every length.
	for l := 0; l < len(body); l += 7 {
		if _, err := DecodeTable(body[:l]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", l)
		}
	}
}

// TestLoadTableFileMissing distinguishes a missing table (ErrNotExist)
// from a corrupt one.
func TestLoadTableFileMissing(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadTableFile(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing table: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, TableFileName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTableFile(dir); err == nil {
		t.Fatal("garbage table accepted")
	}
}
