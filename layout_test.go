package metricdb

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"metricdb/internal/dataset"
	"metricdb/internal/store"
)

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

// TestOpenLayouts: for every engine, the soa layout must answer like the
// default AoS database, bit-identically in answers and statistics (the
// rows engage only on avoidance-free pages, so run with AvoidOff to
// actually exercise them).
func TestOpenLayouts(t *testing.T) {
	const dim, n, capacity = 4, 260, 16
	items := testItems(91, n, dim)
	batch := layoutBatch(dim, 92)

	for _, kind := range []EngineKind{EngineScan, EngineXTree, EngineVAFile} {
		base := Options{Engine: kind, PageCapacity: capacity, BufferPages: 4, Avoidance: AvoidOff}
		aosDB, err := Open(items, base)
		if err != nil {
			t.Fatal(err)
		}
		aosAns, aosStats, err := aosDB.NewBatch().QueryAll(batch)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(string(kind), func(t *testing.T) {
			opts := base
			opts.Layout = "soa"
			db, err := Open(items, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := db.ProcessorStats().Layout; got != "soa" {
				t.Errorf("ProcessorStats().Layout = %q, want soa", got)
			}
			ans, stats, err := db.NewBatch().QueryAll(batch)
			if err != nil {
				t.Fatal(err)
			}
			compareLayoutAnswers(t, "soa", aosAns, ans)
			if stats != aosStats {
				t.Errorf("soa stats differ:\n  aos: %+v\n  soa: %+v", aosStats, stats)
			}
		})
	}
}

// TestOpenStoredLayouts covers both persistence directions: a version-2
// dataset whose pages already carry blocks must serve either layout
// directly, and a plain version-1 dataset must serve them anyway by
// columnizing pages on read (the WrapColumns path). Answers always match
// the in-memory AoS database.
func TestOpenStoredLayouts(t *testing.T) {
	const dim, n, capacity = 4, 260, 16
	items := testItems(93, n, dim)
	batch := layoutBatch(dim, 94)

	aosDB, err := Open(items, Options{PageCapacity: capacity, BufferPages: 4, Avoidance: AvoidOff})
	if err != nil {
		t.Fatal(err)
	}
	aosAns, _, err := aosDB.NewBatch().QueryAll(batch)
	if err != nil {
		t.Fatal(err)
	}

	v1 := t.TempDir()
	if err := dataset.SaveDir(v1, items, dataset.SaveOptions{PageCapacity: capacity, NoSync: true}); err != nil {
		t.Fatal(err)
	}
	v2 := t.TempDir()
	if err := dataset.SaveDir(v2, items, dataset.SaveOptions{
		PageCapacity: capacity, NoSync: true, Columnar: true,
	}); err != nil {
		t.Fatal(err)
	}

	for _, dir := range []struct{ name, path string }{{"v1", v1}, {"v2", v2}} {
		for _, kind := range []EngineKind{EngineScan, EngineXTree, EngineVAFile} {
			for _, layout := range []string{"aos", "soa"} {
				t.Run(fmt.Sprintf("%s/%s/%s", dir.name, kind, layout), func(t *testing.T) {
					db, err := OpenStored(dir.path, Options{
						Engine: kind, PageCapacity: capacity, BufferPages: 4,
						Avoidance: AvoidOff, Layout: layout,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close() //nolint:errcheck
					if _, ok := db.Stored(); !ok {
						t.Error("stored DB does not report persistent storage")
					}
					ans, _, err := db.NewBatch().QueryAll(batch)
					if err != nil {
						t.Fatal(err)
					}
					compareLayoutAnswers(t, layout, aosAns, ans)
				})
			}
		}
	}
}

// TestOpenStoredLegacySections serves the two datasets committed under
// internal/store/testdata, written by the last build that had the f32 and
// quant layouts (msqgen -kind uniform -n 64 -dim 4 -pagecap 16 -seed 7
// -layout f32|quant). They must hold the items that command generates and
// serve them exactly like the same items stored as soa: same answers, same
// Stats, same IOStats, with and without avoidance.
func TestOpenStoredLegacySections(t *testing.T) {
	items := testItems(7, 64, 4)
	soaDir := t.TempDir()
	if err := dataset.SaveDir(soaDir, items, dataset.SaveOptions{PageCapacity: 16, NoSync: true, Columnar: true}); err != nil {
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
	for _, name := range []string{"legacy_f32", "legacy_quant"} {
		// A copy, so engines that persist a derived layout next to the
		// dataset do not write into testdata.
		legacyDir := t.TempDir()
		if err := os.CopyFS(legacyDir, os.DirFS(filepath.Join("internal", "store", "testdata", name))); err != nil {
			t.Fatal(err)
		}
		for _, kind := range []EngineKind{EngineScan, EngineXTree} {
			for _, mode := range []AvoidanceMode{AvoidOff, AvoidBoth} {
				t.Run(fmt.Sprintf("%s/%s/%v", name, kind, mode), func(t *testing.T) {
					opts := Options{Engine: kind, BufferPages: 2, Avoidance: mode, Layout: "soa"}
					wantAns, wantStats, wantIO := run(t, soaDir, opts)
					ans, stats, io := run(t, legacyDir, opts)
					compareLayoutAnswers(t, name, wantAns, ans)
					if stats != wantStats || io != wantIO {
						t.Errorf("legacy dataset served differently:\n  soa:    %+v %+v\n  legacy: %+v %+v", wantStats, wantIO, stats, io)
					}
				})
			}
		}
	}
}

// TestLayoutOptionValidation: the layout knobs reject mistakes before any
// data is touched.
func TestLayoutOptionValidation(t *testing.T) {
	if err := (Options{Layout: "columnar"}).Validate(); err == nil {
		t.Error("unknown layout accepted")
	}
	for _, removed := range []string{"f32", "quant"} {
		err := (Options{Layout: removed}).Validate()
		if err == nil || !strings.Contains(err.Error(), "aos, soa") {
			t.Errorf("layout %q: Validate returned %v, want an error listing aos, soa", removed, err)
		}
	}
	if err := (Options{Layout: "soa"}).Validate(); err != nil {
		t.Errorf("soa layout rejected: %v", err)
	}
}
