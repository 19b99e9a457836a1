package store

import (
	"math"
	"testing"

	"metricdb/internal/vec"
)

// regularItems builds items with finite, well-spread coordinates.
func regularItems(n, dim int) []Item {
	items := make([]Item, n)
	for i := range items {
		v := make(vec.Vector, dim)
		for d := range v {
			v[d] = float64((i*31+d*17)%97)/9.7 - 5
		}
		items[i] = Item{ID: ItemID(i + 1), Vec: v, Label: i % 3}
	}
	return items
}

func TestColumnizeAliasesAndPreserves(t *testing.T) {
	items := regularItems(23, 5)
	orig := make([]vec.Vector, len(items))
	for i := range items {
		orig[i] = append(vec.Vector(nil), items[i].Vec...)
	}
	pages, err := Paginate(items, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := Columnize(pages, ColumnSpec{Columnar: true}); err != nil {
		t.Fatal(err)
	}
	k := 0
	for _, p := range pages {
		b := p.Cols
		if b == nil {
			t.Fatalf("page %d: no block attached", p.ID)
		}
		for i := range p.Items {
			if &p.Items[i].Vec[0] != &b.Item(i)[0] {
				t.Fatalf("page %d item %d: vector does not alias block row", p.ID, i)
			}
			for d, v := range p.Items[i].Vec {
				if math.Float64bits(v) != math.Float64bits(orig[k][d]) {
					t.Fatalf("page %d item %d dim %d: value changed %v -> %v", p.ID, i, d, orig[k][d], v)
				}
			}
			k++
		}
	}
	// Idempotent: a second pass must not rebuild anything.
	before := pages[0].Cols
	if err := Columnize(pages, ColumnSpec{Columnar: true}); err != nil {
		t.Fatal(err)
	}
	if pages[0].Cols != before {
		t.Fatal("re-columnize replaced an up-to-date block")
	}
}

func TestColumnSourceWrapsV1Reads(t *testing.T) {
	items := regularItems(40, 4)
	pages, err := Paginate(items, 16)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := NewDisk(pages)
	if err != nil {
		t.Fatal(err)
	}
	src := WrapColumns(disk, ColumnSpec{Columnar: true})
	if src == PageSource(disk) {
		t.Fatal("non-empty spec returned the source unwrapped")
	}
	if WrapColumns(disk, ColumnSpec{}) != PageSource(disk) {
		t.Fatal("empty spec should not wrap")
	}
	if UnwrapSource(src) != PageSource(disk) {
		t.Fatal("UnwrapSource did not strip the column wrapper")
	}
	for pid := 0; pid < src.NumPages(); pid++ {
		p, err := src.Read(PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		if p.Cols == nil {
			t.Fatalf("page %d read through wrapper lacks its block", pid)
		}
	}
	if got, want := src.Stats().Reads, int64(src.NumPages()); got != want {
		t.Fatalf("wrapper forwarded %d reads, want %d", got, want)
	}
	if src.ResetStats().Reads == 0 || src.Stats().Reads != 0 {
		t.Fatal("wrapper did not forward ResetStats")
	}
}

// TestWriteDatasetColumnar round-trips a columnar dataset through the file
// disk: version-2 manifest, bit-identical coordinates, served as blocks
// through WrapColumns (the decoder itself builds none).
func TestWriteDatasetColumnar(t *testing.T) {
	dir := t.TempDir()
	items := regularItems(50, 3)
	pages, err := Paginate(items, 8)
	if err != nil {
		t.Fatal(err)
	}
	meta := DatasetMeta{Dim: 3, PageCapacity: 8, Columnar: true,
		Attrs: map[string]string{"kind": "test"}}
	if err := WriteDataset(dir, pages, meta, WriteOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFileDisk(dir, FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	man := d.Manifest()
	if man.Version != FormatVersionColumnar || !man.Columnar {
		t.Fatalf("manifest misses columnar facts: %+v", man)
	}
	k := 0
	src := WrapColumns(d, ColumnSpec{Columnar: true})
	for pid := 0; pid < d.NumPages(); pid++ {
		p, err := src.Read(PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		if p.Cols == nil {
			t.Fatalf("page %d served without a block", pid)
		}
		for i := range p.Items {
			if p.Items[i].ID != items[k].ID || p.Items[i].Label != items[k].Label {
				t.Fatalf("page %d item %d identity mismatch", pid, i)
			}
			for dd, v := range p.Items[i].Vec {
				if math.Float64bits(v) != math.Float64bits(items[k].Vec[dd]) {
					t.Fatalf("page %d item %d dim %d: coordinate not bit-identical", pid, i, dd)
				}
			}
			k++
		}
	}
	if k != len(items) {
		t.Fatalf("read back %d items, wrote %d", k, len(items))
	}
}

// TestWriteDatasetPlainStaysV1 pins the compatibility promise: a build with
// no columnar requests still writes a version-1 dataset.
func TestWriteDatasetPlainStaysV1(t *testing.T) {
	dir := t.TempDir()
	pages, err := Paginate(regularItems(10, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDataset(dir, pages, DatasetMeta{Dim: 2}, WriteOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFileDisk(dir, FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	if d.Manifest().Version != FormatVersion || d.Manifest().Columnar {
		t.Fatalf("plain build produced manifest %+v", d.Manifest())
	}
	p, err := d.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cols != nil {
		t.Fatal("version-1 record decoded with a columnar block")
	}
}

// TestWriteDatasetAdoptsPageBlocks: pages that already arrive columnar force
// a version-2 dataset even when the meta requests nothing. Its records then
// decode like version-1 ones: the block is the reader's to ask for.
func TestWriteDatasetAdoptsPageBlocks(t *testing.T) {
	dir := t.TempDir()
	pages, err := Paginate(regularItems(20, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := Columnize(pages, ColumnSpec{Columnar: true}); err != nil {
		t.Fatal(err)
	}
	if err := WriteDataset(dir, pages, DatasetMeta{Dim: 4}, WriteOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFileDisk(dir, FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	man := d.Manifest()
	if man.Version != FormatVersionColumnar || !man.Columnar {
		t.Fatalf("adopted manifest wrong: %+v", man)
	}
	p, err := d.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cols != nil || !samePage(p, pages[0]) {
		t.Fatal("a version-2 record decoded with a block, or with other items than were written")
	}
}
