package main

import (
	"math"
	"sort"

	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// bruteForce is the oracle: the answers of a similarity query by definition
// (Definitions 2 and 3), from a full pass with a distance function written
// here, sharing no code with the engines or the distance kernels.
func bruteForce(items []store.Item, q vec.Vector, t query.Type) []query.Answer {
	var all []query.Answer
	for _, it := range items {
		var s float64
		for j, x := range it.Vec {
			s += (x - q[j]) * (x - q[j])
		}
		if d := math.Sqrt(s); d <= t.Range {
			all = append(all, query.Answer{ID: it.ID, Dist: d})
		}
		if t.Bounded() && len(all) >= 2*t.Cardinality+64 {
			all = nearest(all, t.Cardinality) // keep the candidate list short
		}
	}
	if t.Bounded() {
		return nearest(all, t.Cardinality)
	}
	return nearest(all, len(all))
}

// nearest sorts answers by (distance, ID) and keeps the first k.
func nearest(all []query.Answer, k int) []query.Answer {
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	return all[:min(k, len(all))]
}

// sameAnswers compares a program answer list with the oracle's: the same
// IDs in the same order, each distance within 1e-9 (the oracle sums in a
// different order than the kernels may).
func sameAnswers(got, want []query.Answer) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			return false
		}
	}
	return true
}

// answersDigest folds answer lists into d: list length, IDs and distance
// bits, so any change to an answer — even in the last bit — shows.
func answersDigest(d *digest, lists [][]query.Answer) {
	for _, l := range lists {
		d.word(uint64(len(l)))
		for _, a := range l {
			d.word(uint64(a.ID))
			d.float(a.Dist)
		}
	}
}
