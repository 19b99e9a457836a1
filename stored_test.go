package metricdb

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"metricdb/internal/dataset"
	"metricdb/internal/pivot"
	"metricdb/internal/store"
)

func storedDir(t *testing.T, seed int64, n, dim, capacity int) string {
	t.Helper()
	dir := t.TempDir()
	if err := dataset.SaveDir(dir, testItems(seed, n, dim), dataset.SaveOptions{
		PageCapacity: capacity, NoSync: true,
	}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestOpenStoredMatchesOpen: for every engine kind, a database served from
// persistent storage must answer exactly like one built over the same
// items in memory — answers bit for bit, and for the scan engine (which
// serves the stored page layout directly) the identical I/O statistics.
func TestOpenStoredMatchesOpen(t *testing.T) {
	const dim, n, capacity = 4, 260, 16
	items := testItems(61, n, dim)
	dir := storedDir(t, 61, n, dim, capacity)

	rng := rand.New(rand.NewSource(62))
	point := func() Vector {
		v := make(Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		return v
	}
	batch := []Query{
		{ID: 0, Vec: point(), Type: RangeQuery(0.5)},
		{ID: 1, Vec: point(), Type: KNNQuery(9)},
		{ID: 2, Vec: point(), Type: BoundedKNNQuery(4, 0.7)},
		{ID: 3, Vec: point(), Type: KNNQuery(3)},
	}

	for _, kind := range []EngineKind{EngineScan, EngineXTree, EngineVAFile, EnginePivot, EnginePMTree} {
		for _, mmap := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/mmap=%v", kind, mmap), func(t *testing.T) {
				opts := Options{Engine: kind, PageCapacity: capacity, BufferPages: 4}
				mem, err := Open(items, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Mmap = mmap
				stored, err := OpenStored(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					if err := stored.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
				}()

				if mode, ok := stored.Stored(); !ok || mode == "" {
					t.Errorf("Stored() = %q, %v; want a storage mode", mode, ok)
				}
				if _, ok := mem.Stored(); ok {
					t.Error("in-memory DB claims persistent storage")
				}
				if stored.Len() != mem.Len() || stored.Dim() != mem.Dim() {
					t.Fatalf("shape: stored %d/%d, mem %d/%d", stored.Len(), stored.Dim(), mem.Len(), mem.Dim())
				}

				memAns, memStats, err := mem.NewBatch().QueryAll(batch)
				if err != nil {
					t.Fatal(err)
				}
				storedAns, storedStats, err := stored.NewBatch().QueryAll(batch)
				if err != nil {
					t.Fatal(err)
				}
				if len(memAns) != len(storedAns) {
					t.Fatalf("answer list counts differ")
				}
				for q := range memAns {
					if len(memAns[q]) != len(storedAns[q]) {
						t.Fatalf("query %d: %d vs %d answers", q, len(memAns[q]), len(storedAns[q]))
					}
					for i := range memAns[q] {
						if memAns[q][i].ID != storedAns[q][i].ID ||
							math.Float64bits(memAns[q][i].Dist) != math.Float64bits(storedAns[q][i].Dist) {
							t.Fatalf("query %d answer %d differs: %+v vs %+v",
								q, i, memAns[q][i], storedAns[q][i])
						}
					}
				}
				// The pivot engine is the one kind whose stored layout
				// differs from its in-memory one (Open lays pages out in
				// pivot order, OpenStored serves the dataset's sequential
				// pages), so its pruning statistics legitimately diverge.
				if kind != EnginePivot && storedStats != memStats {
					t.Errorf("stats differ:\n  mem:    %+v\n  stored: %+v", memStats, storedStats)
				}
				if kind == EngineScan && stored.IOStats() != mem.IOStats() {
					t.Errorf("scan I/O stats differ: mem %+v, stored %+v", mem.IOStats(), stored.IOStats())
				}

				st, ok := stored.StorageStats()
				if !ok {
					t.Fatal("stored DB reports no storage stats")
				}
				if mode, _ := stored.Stored(); mode == "pread" && (st.Preads == 0 || st.BytesRead == 0) {
					t.Errorf("pread mode issued no reads: %+v", st)
				}
				if st.ChecksumFailures != 0 {
					t.Errorf("checksum failures on a clean dataset: %+v", st)
				}
				if _, ok := mem.StorageStats(); ok {
					t.Error("in-memory DB reports storage stats")
				}
			})
		}
	}
}

// TestOpenStoredDerivedLayout: index engines persist their private page
// layout beside the dataset and rebuild it on every open.
func TestOpenStoredDerivedLayout(t *testing.T) {
	dir := storedDir(t, 71, 150, 3, 8)
	db, err := OpenStored(dir, Options{Engine: EngineXTree, PageCapacity: 8, BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	layout := filepath.Join(dir, "layout-xtree")
	if _, err := os.Stat(filepath.Join(layout, "MANIFEST")); err != nil {
		t.Errorf("layout manifest missing: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the layout generation bumps and the dataset still serves.
	db, err = OpenStored(dir, Options{Engine: EngineXTree, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	if ans, _, err := db.Query(Vector{0.5, 0.5, 0.5}, KNNQuery(5)); err != nil || len(ans) != 5 {
		t.Fatalf("query after reopen: %d answers, %v", len(ans), err)
	}
}

// TestOpenStoredPivotTablePersistence: the first pivot open computes the
// distance matrix and persists the table; later opens load it back without
// a single build distance calculation, and a stale or corrupt table is
// silently rebuilt.
func TestOpenStoredPivotTablePersistence(t *testing.T) {
	dir := storedDir(t, 91, 200, 4, 16)
	opts := Options{Engine: EnginePivot, BufferPages: 4}

	db, err := OpenStored(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng1, ok := db.eng.(*pivot.Engine)
	if !ok {
		t.Fatalf("stored pivot DB built a %T", db.eng)
	}
	if eng1.Table().BuildDistCalcs == 0 {
		t.Error("first open did not compute the distance matrix")
	}
	if _, err := os.Stat(filepath.Join(dir, pivot.TableFileName)); err != nil {
		t.Fatalf("pivot table not persisted: %v", err)
	}
	ans1, _, err := db.Query(Vector{0.4, 0.6, 0.2, 0.8}, KNNQuery(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Second open: the table comes from disk. A loaded table carries no
	// BuildDistCalcs — the distance matrix was not recomputed.
	db, err = OpenStored(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := db.eng.(*pivot.Engine)
	if eng2.Table().BuildDistCalcs != 0 {
		t.Errorf("second open recomputed the matrix (%d distance calculations)", eng2.Table().BuildDistCalcs)
	}
	if got, want := eng2.Table().NumPivots(), pivot.DefaultPivots; got != want {
		t.Errorf("loaded table has %d pivots, want %d", got, want)
	}
	ans2, _, err := db.Query(Vector{0.4, 0.6, 0.2, 0.8}, KNNQuery(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans1) != len(ans2) {
		t.Fatalf("answers differ across opens: %d vs %d", len(ans1), len(ans2))
	}
	for i := range ans1 {
		if ans1[i] != ans2[i] {
			t.Fatalf("answer %d differs across opens: %+v vs %+v", i, ans1[i], ans2[i])
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A persisted table with another pivot count — here the first 4
	// pivots of the live one, with its generation, metric and shape — is
	// not served but rebuilt, and the rebuild persisted.
	stale, err := pivot.LoadTableFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	stale.Pivots, stale.MinD, stale.MaxD = stale.Pivots[:4], stale.MinD[:4], stale.MaxD[:4]
	if err := pivot.WriteTableFile(dir, stale); err != nil {
		t.Fatal(err)
	}
	db, err = OpenStored(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tab := db.eng.(*pivot.Engine).Table(); tab.NumPivots() != pivot.DefaultPivots || tab.BuildDistCalcs == 0 {
		t.Errorf("a 4-pivot table on disk served as %d pivots, %d build distance calculations; want a rebuild of %d",
			tab.NumPivots(), tab.BuildDistCalcs, pivot.DefaultPivots)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if tab, err := pivot.LoadTableFile(dir); err != nil {
		t.Errorf("rebuilt table not persisted: %v", err)
	} else if tab.NumPivots() != pivot.DefaultPivots {
		t.Errorf("persisted table has %d pivots, want %d", tab.NumPivots(), pivot.DefaultPivots)
	}

	// Corruption is shrugged off with a rebuild.
	if err := os.WriteFile(filepath.Join(dir, pivot.TableFileName), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = OpenStored(dir, opts)
	if err != nil {
		t.Fatalf("corrupt table broke open: %v", err)
	}
	if db.eng.(*pivot.Engine).Table().BuildDistCalcs == 0 {
		t.Error("corrupt table was not rebuilt")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenStoredErrors: a missing directory, a gob file, and a corrupt
// dataset are all rejected cleanly.
func TestOpenStoredErrors(t *testing.T) {
	if _, err := OpenStored(filepath.Join(t.TempDir(), "nope"), Options{}); err == nil {
		t.Error("missing directory accepted")
	}
	if _, err := OpenStored(t.TempDir(), Options{}); err == nil {
		t.Error("empty directory accepted")
	}
	if _, err := OpenStored(storedDir(t, 81, 40, 2, 8), Options{Engine: "btree"}); err == nil {
		t.Error("unknown engine accepted")
	}
}

// TestOpenStoredLegacySections serves the three datasets committed under
// internal/store/testdata, written by earlier builds with the command
// msqgen -kind uniform -n 64 -dim 4 -pagecap 16 -seed 7 and -layout soa
// (version-2 records), f32 or quant (version-2 records with the legacy
// sections). They must hold the items that command generates and serve
// them exactly like the same items written by this build (version 1): same
// answers, same Stats, same IOStats, with and without avoidance.
func TestOpenStoredLegacySections(t *testing.T) {
	items := testItems(7, 64, 4)
	v1Dir := t.TempDir()
	if err := dataset.SaveDir(v1Dir, items, dataset.SaveOptions{PageCapacity: 16, NoSync: true}); err != nil {
		t.Fatal(err)
	}
	batch := layoutBatch(4, 96)
	run := func(t *testing.T, dir string, opts Options) ([][]Answer, Stats, store.IOStats) {
		t.Helper()
		db, err := OpenStored(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close() //nolint:errcheck
		if !reflect.DeepEqual(db.Items(), items) {
			t.Fatalf("%s holds different items than its generator command", dir)
		}
		ans, stats, err := db.NewBatch().QueryAll(batch)
		if err != nil {
			t.Fatal(err)
		}
		return ans, stats, db.IOStats()
	}
	for _, name := range []string{"v2_columnar", "legacy_f32", "legacy_quant"} {
		// A copy, so engines that persist a derived layout next to the
		// dataset do not write into testdata.
		oldDir := t.TempDir()
		if err := os.CopyFS(oldDir, os.DirFS(filepath.Join("internal", "store", "testdata", name))); err != nil {
			t.Fatal(err)
		}
		for _, kind := range []EngineKind{EngineScan, EngineXTree} {
			for _, mode := range []AvoidanceMode{AvoidOff, AvoidBoth} {
				t.Run(fmt.Sprintf("%s/%s/%v", name, kind, mode), func(t *testing.T) {
					opts := Options{Engine: kind, BufferPages: 2, Avoidance: mode}
					wantAns, wantStats, wantIO := run(t, v1Dir, opts)
					ans, stats, io := run(t, oldDir, opts)
					compareLayoutAnswers(t, name, wantAns, ans)
					if stats != wantStats || io != wantIO {
						t.Errorf("%s served differently:\n  v1:  %+v %+v\n  old: %+v %+v", name, wantStats, wantIO, stats, io)
					}
				})
			}
		}
	}
}

func layoutBatch(dim int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	point := func() Vector {
		v := make(Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		return v
	}
	return []Query{
		{ID: 0, Vec: point(), Type: RangeQuery(0.5)},
		{ID: 1, Vec: point(), Type: KNNQuery(9)},
		{ID: 2, Vec: point(), Type: BoundedKNNQuery(4, 0.7)},
		{ID: 3, Vec: point(), Type: KNNQuery(3)},
	}
}

// compareLayoutAnswers requires bit-identical answer lists.
func compareLayoutAnswers(t *testing.T, label string, want, got [][]Answer) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d answer lists", label, len(want), len(got))
	}
	for q := range want {
		if len(want[q]) != len(got[q]) {
			t.Fatalf("%s: query %d: %d vs %d answers", label, q, len(want[q]), len(got[q]))
		}
		for i := range want[q] {
			a, b := want[q][i], got[q][i]
			if a.ID != b.ID {
				t.Fatalf("%s: query %d answer %d: id %d vs %d", label, q, i, a.ID, b.ID)
			}
			if math.Float64bits(a.Dist) != math.Float64bits(b.Dist) {
				t.Fatalf("%s: query %d answer %d: dist %v vs %v", label, q, i, a.Dist, b.Dist)
			}
		}
	}
}
