package engine

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"metricdb/internal/store"
)

// TestShortSortsMatchSortFunc: SortPlan sorts a short plan by insertion and
// a long one by slices.SortFunc; at every length from 0 to 40, over plans
// with many ties on the bound and with NaN and infinite bounds among them,
// both give what slices.SortFunc gives with cmp.Compare's order.
func TestShortSortsMatchSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	byBoundID := func(a, b PageRef) int {
		if c := cmp.Compare(a.MinDist, b.MinDist); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	}
	odd := []float64{math.NaN(), math.Inf(1), 0, math.Copysign(0, -1)}
	for n := 0; n <= 40; n++ {
		for round := 0; round < 20; round++ {
			refs := make([]PageRef, 0, n)
			for _, id := range rng.Perm(n) {
				d := float64(rng.Intn(1+n/4)) / 8 // few distinct bounds: many ties
				if round%4 == 3 && rng.Intn(4) == 0 {
					d = odd[rng.Intn(len(odd))]
				}
				refs = append(refs, PageRef{ID: store.PageID(id), MinDist: d})
			}
			want := slices.Clone(refs)
			slices.SortFunc(want, byBoundID)
			SortPlan(refs)
			for i := range refs {
				if refs[i].ID != want[i].ID || math.Float64bits(refs[i].MinDist) != math.Float64bits(want[i].MinDist) {
					t.Fatalf("%d refs, round %d: %v, want %v", n, round, refs, want)
				}
			}
		}
	}
}
