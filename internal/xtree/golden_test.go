package xtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// treeDigest hashes everything a build decides: the leaf order, every
// page's item IDs in page order, every leaf MBR bit for bit, and Stats().
func treeDigest(t *testing.T, tr *Tree) string {
	t.Helper()
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	rects := leafRects(tr)
	for pid := 0; pid < tr.NumPages(); pid++ {
		page, err := tr.ReadPage(store.PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(page.ID))
		put(uint64(len(page.Items)))
		for i := range page.Items {
			put(uint64(page.Items[i].ID))
		}
		r := rects[pid]
		for d := range r.Min {
			put(math.Float64bits(r.Min[d]))
			put(math.Float64bits(r.Max[d]))
		}
	}
	fmt.Fprintf(h, "%+v", tr.Stats())
	return fmt.Sprintf("%016x", h.Sum64())
}

// duplicateItems draws n items from only distinct uniform points, so
// splits meet equal keys on every axis and chooseSubtree meets points
// already inside several children.
func duplicateItems(rng *rand.Rand, n, dim, distinct int) []store.Item {
	base := uniformItems(rng, distinct, dim)
	items := make([]store.Item, n)
	for i := range items {
		items[i] = store.Item{ID: store.ItemID(i), Vec: append(vec.Vector(nil), base[rng.Intn(distinct)].Vec...)}
	}
	return items
}

// TestBulkGoldenDigest pins the trees dynamic insertion builds to the ones
// the commit before the split scratch built (digests taken there): the
// scratch and the skipped upper-edge order of point leaves change where the
// prefix and suffix MBRs live, not one comparison. The duplicate case was
// taken before the split sorts moved to precomputed keys.
func TestBulkGoldenDigest(t *testing.T) {
	cases := []struct {
		name     string
		seed     int64
		n, dim   int
		distinct int // 0: every point drawn afresh
		cfg      Config
		want     string
	}{
		{"seed1/20000x8", 1, 20000, 8, 0, DefaultConfig(8), "7a414dd417ebc36b"},
		{"seed2/20000x8", 2, 20000, 8, 0, DefaultConfig(8), "a65628cd5ed0bbb0"},
		// Small pages in 16-d: directory splits, the history-based
		// overlap-free split and supernodes all happen.
		{"seed3/6000x16", 3, 6000, 16, 0, Config{LeafCapacity: 8, DirFanout: 6}, "90761b53264dbc34"},
		{"seed4/8000x4/duplicates", 4, 8000, 4, 900, Config{LeafCapacity: 16, DirFanout: 8}, "6eafca17b17b8350"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			var items []store.Item
			if c.distinct > 0 {
				items = duplicateItems(rng, c.n, c.dim, c.distinct)
			} else {
				items = uniformItems(rng, c.n, c.dim)
			}
			tr, err := Bulk(items, c.dim, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := treeDigest(t, tr); got != c.want {
				t.Errorf("tree digest %s, want %s (stats %+v)", got, c.want, tr.Stats())
			}
		})
	}
}

// TestBulkAllocationCeiling holds the dynamic build of the 20 000 × 8-d set
// (1.3 MB of coordinates) under 25 MB allocated; cloning the prefix and
// suffix MBRs of every sort order of every split took 201 MB.
func TestBulkAllocationCeiling(t *testing.T) {
	items := uniformItems(rand.New(rand.NewSource(1)), 20000, 8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := Bulk(items, 8, DefaultConfig(8))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 25 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("Bulk allocated %.1f MB in %d objects, ceiling %d MB", float64(got)/(1<<20), after.Mallocs-before.Mallocs, ceiling>>20)
	}
	// A page's Items array is sized to the page.
	for pid := 0; pid < tr.NumPages(); pid++ {
		page, err := tr.ReadPage(store.PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		if cap(page.Items) != len(page.Items) {
			t.Fatalf("page %d: cap %d for %d items", pid, cap(page.Items), len(page.Items))
		}
	}
}

// TestBuildPacksDataPages holds Build to the layout the page loop streams:
// the pages' vectors are capped rows of one array, consecutive in page
// order across pages, each bit-equal to the caller's item with its ID and
// none sharing memory with the caller's vectors, which Build leaves as they
// were; the leaves keep no items, and Stats still counts them all.
func TestBuildPacksDataPages(t *testing.T) {
	cases := []struct {
		name   string
		n, dim int
		cfg    Config
	}{
		{"supernodes/fanout8", 6000, 5, Config{LeafCapacity: 4, DirFanout: 8}},
		{"one leaf", 7, 3, testConfig()},
		{"empty", 0, 3, testConfig()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			items := uniformItems(rand.New(rand.NewSource(4)), c.n, c.dim)
			for i := range items {
				items[i].Label = 3 * i
			}
			before := make([]store.Item, len(items))
			for i, it := range items {
				before[i] = it
				before[i].Vec = append(vec.Vector(nil), it.Vec...)
			}
			tr, err := Bulk(items, c.dim, c.cfg)
			if err != nil {
				t.Fatal(err)
			}

			var rows []store.Item
			for pid := 0; pid < tr.NumPages(); pid++ {
				page, err := tr.ReadPage(store.PageID(pid))
				if err != nil {
					t.Fatal(err)
				}
				rows = append(rows, page.Items...)
			}
			if len(rows) != len(items) {
				t.Fatalf("%d rows on the pages for %d items", len(rows), len(items))
			}
			row := c.dim * int(unsafe.Sizeof(float64(0)))
			var base uintptr
			seen := make([]bool, len(items))
			for k, it := range rows {
				if len(it.Vec) != c.dim || cap(it.Vec) != c.dim {
					t.Fatalf("row %d: len %d cap %d, want %d", k, len(it.Vec), cap(it.Vec), c.dim)
				}
				at := uintptr(unsafe.Pointer(&it.Vec[0]))
				if k == 0 {
					base = at
				}
				if at != base+uintptr(k*row) {
					t.Fatalf("row %d (item %d) at %#x, want %#x: not the next row of one array", k, it.ID, at, base+uintptr(k*row))
				}
				id := int(it.ID)
				if id < 0 || id >= len(items) || seen[id] {
					t.Fatalf("row %d holds item %d twice or out of range", k, id)
				}
				seen[id] = true
				want := before[id]
				if it.Label != want.Label {
					t.Errorf("item %d: label %d, want %d", id, it.Label, want.Label)
				}
				for d := range want.Vec {
					if math.Float64bits(it.Vec[d]) != math.Float64bits(want.Vec[d]) {
						t.Fatalf("item %d: coordinate %d is %v, want %v", id, d, it.Vec[d], want.Vec[d])
					}
				}
			}
			end := base + uintptr(len(rows)*row)
			for i, it := range items {
				if at := uintptr(unsafe.Pointer(&it.Vec[0])); at >= base && at < end {
					t.Fatalf("the caller's item %d lies inside the pages' array", i)
				}
				for d := range it.Vec {
					if math.Float64bits(it.Vec[d]) != math.Float64bits(before[i].Vec[d]) {
						t.Fatalf("the caller's item %d changed at coordinate %d", i, d)
					}
				}
			}

			var walk func(n *node)
			walk = func(n *node) {
				if n.items != nil {
					t.Errorf("leaf of page %d holds %d items after Build", n.pid, len(n.items))
				}
				for _, ch := range n.children {
					walk(ch)
				}
			}
			walk(tr.root)
			if got := tr.Stats().Items; got != tr.Len() || got != c.n {
				t.Errorf("Stats().Items = %d, Len() = %d, want %d", got, tr.Len(), c.n)
			}
		})
	}
}

// TestFailedBuildKeepsItems: a Build that fails in its disk hook leaves
// the leaves their items, so a second Build packs every item.
func TestFailedBuildKeepsItems(t *testing.T) {
	items := uniformItems(rand.New(rand.NewSource(5)), 300, 4)
	fail := true
	cfg := testConfig()
	cfg.WrapDisk = func(src store.PageSource) (store.PageSource, error) {
		if fail {
			return nil, errors.New("disk full")
		}
		return src, nil
	}
	tr, err := New(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := tr.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Build(); err == nil {
		t.Fatal("Build succeeded through a failing disk hook")
	}
	fail = false
	if err := tr.Build(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for pid := 0; pid < tr.NumPages(); pid++ {
		page, err := tr.ReadPage(store.PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		n += len(page.Items)
	}
	if n != len(items) {
		t.Errorf("the second Build paged %d of %d items", n, len(items))
	}
}

// BenchmarkBulk is the dynamic build both X-tree benchmark workloads pay in
// setup_s, for -benchmem and -cpuprofile.
func BenchmarkBulk(b *testing.B) {
	items := uniformItems(rand.New(rand.NewSource(1)), 20000, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Bulk(items, 8, DefaultConfig(8)); err != nil {
			b.Fatal(err)
		}
	}
}
