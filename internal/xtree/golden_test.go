package xtree

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

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
		if len(page.Items) != tr.PageLen(page.ID) {
			t.Fatalf("page %d holds %d items, PageLen says %d", pid, len(page.Items), tr.PageLen(page.ID))
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
	// A page's Items array is sized to the page, and the leaf shares it.
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
