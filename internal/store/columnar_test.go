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

// TestColumnizeAliasesAndPreserves holds the deprecated ColumnizePage to
// what the benchmark's row-kernel probe relies on: the block's rows, as
// Item returns them, are the page's items bit for bit, while the items keep
// the vectors they had; a spec that asks nothing, or a page without items,
// gets no block; a page of mixed dimensions is refused.
func TestColumnizeAliasesAndPreserves(t *testing.T) {
	pages, err := Paginate(regularItems(23, 5), 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		vecs := make([]*float64, len(p.Items))
		for i := range p.Items {
			vecs[i] = &p.Items[i].Vec[0]
		}
		if err := ColumnizePage(p, ColumnSpec{}); err != nil || p.Cols != nil {
			t.Fatalf("page %d: a spec that asks nothing gave block %v, error %v", p.ID, p.Cols, err)
		}
		if err := ColumnizePage(p, ColumnSpec{Columnar: true}); err != nil {
			t.Fatal(err)
		}
		b := p.Cols
		if b == nil || b.N != len(p.Items) || b.Dim != 5 || len(b.F64) != 5*len(p.Items) {
			t.Fatalf("page %d: block %+v for %d items", p.ID, b, len(p.Items))
		}
		for i := range p.Items {
			if &p.Items[i].Vec[0] != vecs[i] {
				t.Fatalf("page %d item %d: the item's vector moved", p.ID, i)
			}
			if &b.Item(i)[0] != &b.F64[5*i] {
				t.Fatalf("page %d item %d: Item does not alias the block's row", p.ID, i)
			}
			for d, v := range p.Items[i].Vec {
				if math.Float64bits(v) != math.Float64bits(b.Item(i)[d]) {
					t.Fatalf("page %d item %d dim %d: block reads %v, item %v", p.ID, i, d, b.Item(i)[d], v)
				}
			}
		}
	}
	empty := &Page{}
	if err := ColumnizePage(empty, ColumnSpec{Columnar: true}); err != nil || empty.Cols != nil {
		t.Fatalf("itemless page: block %v, error %v", empty.Cols, err)
	}
	mixed := &Page{Items: []Item{{Vec: vec.Vector{1, 2}}, {Vec: vec.Vector{1}}}}
	if err := ColumnizePage(mixed, ColumnSpec{Columnar: true}); err == nil {
		t.Fatal("a page of mixed dimensions was columnized")
	}
}

// TestWriteDatasetPlainStaysV1 pins the writer to version 1: its manifest
// claims no columnar field and its records read back as the pages written,
// also for a page that carries a block ColumnizePage built.
func TestWriteDatasetPlainStaysV1(t *testing.T) {
	dir := t.TempDir()
	pages, err := Paginate(regularItems(10, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ColumnizePage(pages[1], ColumnSpec{Columnar: true}); err != nil {
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
		t.Fatalf("build produced manifest %+v", d.Manifest())
	}
	for pid := range pages {
		p, err := d.Read(PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		if !samePage(p, pages[pid]) {
			t.Fatalf("page %d decoded differently from what was written", pid)
		}
		requireAliasesRecord(t, p)
		p.unpin()
	}
}
