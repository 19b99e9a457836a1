package explore

import (
	"fmt"
	"math"
	"sort"

	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/store"
)

// ProximityTopK implements the retrieval half of proximity analysis (§3.2,
// after Knorr & Ng): it finds the k database objects closest to a cluster,
// where an object's distance to the cluster is its minimum distance to any
// cluster member, excluding the members themselves. StartObjects is the
// cluster; all member queries run as one multiple similarity query.
// cfg.SimType is ignored.
func ProximityTopK(cfg Config, clusterIDs []store.ItemID, k int) ([]query.Answer, Stats, error) {
	// Each member asks for enough neighbors that, even if the nearest
	// ones are all fellow members, k outsiders remain.
	kNN := k + len(clusterIDs)
	cfg.SimType = query.NewKNN(kNN)
	var stats Stats
	if err := cfg.Validate(); err != nil {
		return nil, stats, err
	}
	if k < 1 {
		return nil, stats, fmt.Errorf("explore: k must be >= 1, got %d", k)
	}
	if len(clusterIDs) == 0 {
		return nil, stats, fmt.Errorf("explore: empty cluster")
	}
	if err := checkIDs(len(cfg.Items), clusterIDs...); err != nil {
		return nil, stats, err
	}

	member := make(map[store.ItemID]bool, len(clusterIDs))
	batch := make([]msq.Query, 0, len(clusterIDs))
	for _, id := range clusterIDs {
		if member[id] {
			continue
		}
		member[id] = true
		it := cfg.Items[id]
		batch = append(batch, msq.Query{ID: uint64(id), Vec: it.Vec, Type: cfg.SimType})
	}

	session := cfg.Proc.NewSession()
	results, qs, err := session.MultiQueryAll(batch)
	stats.Query = stats.Query.Add(qs)
	stats.Steps += len(batch)
	if err != nil {
		return nil, stats, err
	}

	// Aggregate: min distance to any member, per non-member object.
	minDist := make(map[store.ItemID]float64)
	for _, r := range results {
		for _, a := range r.Answers() {
			if member[a.ID] {
				continue
			}
			if d, ok := minDist[a.ID]; !ok || a.Dist < d {
				minDist[a.ID] = a.Dist
			}
		}
	}
	out := make([]query.Answer, 0, len(minDist))
	for id, d := range minDist {
		out = append(out, query.Answer{ID: id, Dist: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, stats, nil
}

// Feature describes one dimension of the common-feature analysis.
type Feature struct {
	Dim    int
	Mean   float64
	StdDev float64
	// Common reports whether the dimension's spread among the analyzed
	// objects is below the threshold relative to the global spread — the
	// "features that are common to most of them".
	Common bool
}

// CommonFeatures performs the second half of proximity analysis: given the
// top-k objects near a cluster, it reports per-dimension statistics and
// flags dimensions whose standard deviation within the group is below
// ratio times the standard deviation over the whole database.
func CommonFeatures(items []store.Item, ids []store.ItemID, ratio float64) ([]Feature, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("explore: no objects to analyze")
	}
	if !(ratio > 0) { // NaN too
		return nil, fmt.Errorf("explore: ratio must be positive, got %g", ratio)
	}
	if err := checkIDs(len(items), ids...); err != nil {
		return nil, err
	}
	dim := items[0].Vec.Dim()
	features := make([]Feature, dim)
	for d := 0; d < dim; d++ {
		gm, gs := meanStd(items, nil, d)
		m, s := meanStd(items, ids, d)
		features[d] = Feature{
			Dim:    d,
			Mean:   m,
			StdDev: s,
			Common: gs > 0 && s <= ratio*gs,
		}
		_ = gm
	}
	return features, nil
}

// meanStd computes mean and standard deviation of dimension d over the
// given ids, or over all items when ids is nil.
func meanStd(items []store.Item, ids []store.ItemID, d int) (mean, std float64) {
	var n int
	var sum, sum2 float64
	acc := func(v float64) {
		n++
		sum += v
		sum2 += v * v
	}
	if ids == nil {
		for i := range items {
			acc(items[i].Vec[d])
		}
	} else {
		for _, id := range ids {
			acc(items[id].Vec[d])
		}
	}
	if n == 0 {
		return 0, 0
	}
	mean = sum / float64(n)
	v := sum2/float64(n) - mean*mean
	if v < 0 {
		v = 0
	}
	return mean, math.Sqrt(v)
}
