package pmtree

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"metricdb/internal/dataset"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// layoutDigest hashes everything a build decides: every page's item IDs in
// page order, every node's center, radius, rings and child range bit for
// bit, and BuildDistCalcs.
func layoutDigest(t *testing.T, e *Engine) string {
	t.Helper()
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putFloats := func(fs []float64) {
		for _, f := range fs {
			put(math.Float64bits(f))
		}
	}
	for pid := 0; pid < e.NumPages(); pid++ {
		page, err := e.ReadPage(store.PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(len(page.Items)))
		for i := range page.Items {
			put(uint64(page.Items[i].ID))
		}
	}
	for i := range e.nodes {
		nd := &e.nodes[i]
		put(uint64(nd.pid))
		put(uint64(nd.firstChild))
		put(uint64(nd.numChildren))
		putFloats(nd.center)
		put(math.Float64bits(nd.radius))
		putFloats(nd.ringMin)
		putFloats(nd.ringMax)
	}
	put(uint64(e.BuildDistCalcs()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// duplicateItems draws n items of dim coordinates from only distinct
// points, so many items share a vector and the clustering meets exact
// distance ties everywhere.
func duplicateItems(seed int64, n, dim, distinct int) []store.Item {
	base := dataset.Uniform(seed, distinct, dim)
	rng := rand.New(rand.NewSource(seed))
	items := make([]store.Item, n)
	for i := range items {
		items[i] = store.Item{ID: store.ItemID(i), Vec: append(vec.Vector(nil), base[rng.Intn(distinct)].Vec...)}
	}
	return items
}

// TestLayoutGoldenDigest pins the trees the bulk load builds to the ones
// the seed-sorting build made (digests taken there): how a seed finds its
// nearest items and how the farthest-first passes evaluate distances may
// change, the leaves, balls, rings and the metric evaluations charged may
// not.
func TestLayoutGoldenDigest(t *testing.T) {
	cases := []struct {
		name  string
		items []store.Item
		cfg   Config
		want  string
	}{
		{"20000x8", dataset.Uniform(21, 20000, 8), Config{PageCapacity: store.PageCapacityForBlockSize(32768, 8)}, "5df47b726b7f1f8b"},
		{"3000x4/duplicates", duplicateItems(22, 3000, 4, 500), Config{PageCapacity: 50, Fanout: 4}, "b1e503a1cc1498bf"},
		{"5000x20", dataset.Uniform(23, 5000, 20), Config{PageCapacity: store.PageCapacityForBlockSize(32768, 20), Pivots: 12}, "31880a3db0926d9f"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := New(c.items, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := layoutDigest(t, e); got != c.want {
				t.Errorf("layout digest %s, want %s (%d pages, %d nodes, %d build distances)",
					got, c.want, e.NumPages(), len(e.nodes), e.BuildDistCalcs())
			}
		})
	}
}

// TestNearestFirstTakesTheSmallest checks the claim selection against a full
// sort under the same order, at every k, over distances with many ties.
func TestNearestFirstTakesTheSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{1, 2, 17, 40, 300} {
		cands := make([]cand, n)
		for i, idx := range rng.Perm(n) {
			cands[i] = cand{d: float64(rng.Intn(n/3 + 1)), idx: idx}
		}
		sorted := slices.Clone(cands)
		slices.SortFunc(sorted, func(a, b cand) int {
			if candLess(a, b) {
				return -1
			}
			return 1
		})
		for k := 0; k <= n; k++ {
			got := slices.Clone(cands)
			nearestFirst(got, k)
			head := got[:k]
			slices.SortFunc(head, func(a, b cand) int {
				if candLess(a, b) {
					return -1
				}
				return 1
			})
			if !slices.Equal(head, sorted[:k]) {
				t.Fatalf("n=%d k=%d: took %v, want %v", n, k, head, sorted[:k])
			}
		}
	}
}
