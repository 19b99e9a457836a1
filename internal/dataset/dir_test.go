package dataset

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metricdb/internal/store"
)

// sameItems is bit-exact equality of two item slices.
func sameItems(a, b []store.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Label != b[i].Label || a[i].Vec.Dim() != b[i].Vec.Dim() {
			return false
		}
		for d := range a[i].Vec {
			if math.Float64bits(a[i].Vec[d]) != math.Float64bits(b[i].Vec[d]) {
				return false
			}
		}
	}
	return true
}

func TestSaveDirLoadDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	items, err := Clustered(ClusteredConfig{Seed: 7, N: 211, Dim: 9, Clusters: 4, NoiseFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	attrs := map[string]string{"kind": "clustered", "seed": "7"}
	if err := SaveDir(dir, items, SaveOptions{PageCapacity: 16, Attrs: attrs}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sameItems(items, got) {
		t.Fatal("LoadDir items differ from saved items")
	}
	fd, err := store.OpenFileDisk(dir, store.FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close() //nolint:errcheck
	man := fd.Manifest()
	if man.Attrs["kind"] != "clustered" || man.PageCapacity != 16 || man.Dim != 9 || man.Items != 211 {
		t.Errorf("manifest metadata: %+v", man)
	}
}

// TestLoadDirRejectsFile: a regular file (what the removed single-file
// format produced) is refused with an error that names the way out, and a
// missing path with the usual no-dataset error.
func TestLoadDirRejectsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.gob")
	if err := os.WriteFile(path, []byte("a single-file dataset"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDir(path)
	if !errors.Is(err, store.ErrNoDataset) || !strings.Contains(err.Error(), "regenerate it with msqgen") {
		t.Fatalf("LoadDir of a regular file returned %v", err)
	}
	if _, err := LoadDir(filepath.Join(t.TempDir(), "no-such-thing")); !errors.Is(err, store.ErrNoDataset) {
		t.Errorf("LoadDir of a missing path returned %v", err)
	}
}

func TestSaveDirRejectsMixedDimensions(t *testing.T) {
	items := Uniform(5, 4, 3)
	items[2].Vec = items[2].Vec[:2]
	if err := SaveDir(t.TempDir(), items, SaveOptions{PageCapacity: 2}); err == nil {
		t.Fatal("mixed-dimension save succeeded")
	}
}

func TestSaveDirEmpty(t *testing.T) {
	dir := t.TempDir()
	if err := SaveDir(dir, nil, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty dataset loaded %d items", len(got))
	}
}
