package geom

import (
	"math"

	"metricdb/internal/vec"
)

// LowerBound computes a lower bound on the m-distance from q to any point
// inside r, generalizing Euclidean MINDIST to arbitrary metrics:
//
//   - For coordinatewise metrics (all Lp variants, weighted Euclidean) it
//     applies the metric to the per-coordinate gap vector, which is exact
//     MINDIST for those metrics.
//   - For any other metric it returns 0, which is always safe: the index
//     simply loses selectivity, converging to scan behaviour — precisely the
//     degradation mode §4 of the paper describes for indexes without
//     selectivity.
//
// Counting wrappers are stripped first so that geometric bound evaluations
// are not charged as object distance calculations.
func LowerBound(m vec.Metric, r Rect, q vec.Vector) float64 {
	return bound(m, r, q, false, 0)
}

// UpperBound computes an upper bound on the m-distance from q to any point
// inside r (generalized MAXDIST): the metric applied to the per-coordinate
// farthest-edge gaps for coordinatewise metrics, +Inf otherwise. The
// multi-query processor uses it to bound a k-NN query's result distance
// before any object distance has been calculated.
func UpperBound(m vec.Metric, r Rect, q vec.Vector) float64 {
	return bound(m, r, q, true, math.Inf(1))
}

// bound is LowerBound (far == false) or UpperBound (far == true); unknown is
// the answer for a metric that is not coordinatewise. The index engines call
// it once per (page, query), so for the metrics vec ships it allocates
// nothing (vec.BoxDistance); a coordinatewise metric from elsewhere gets
// the gap vector built for it.
func bound(m vec.Metric, r Rect, q vec.Vector, far bool, unknown float64) float64 {
	base := vec.BaseMetric(m)
	cw, ok := base.(vec.Coordinatewise)
	if !ok || !cw.CoordinatewiseMetric() {
		return unknown
	}
	if d, ok := vec.BoxDistance(base, q, r.Min, r.Max, far); ok {
		return d
	}
	return boundByGapVector(base, r, q, far)
}

// boundByGapVector materializes the gap vector and hands it to the metric:
// the definition of the bound, and what vec.BoxDistance must equal bit for
// bit.
func boundByGapVector(base vec.Metric, r Rect, q vec.Vector, far bool) float64 {
	gap := make(vec.Vector, len(q))
	zero := make(vec.Vector, len(q))
	for i := range q {
		switch {
		case far:
			gap[i] = math.Abs(q[i] - r.Max[i])
			if lo := math.Abs(q[i] - r.Min[i]); lo > gap[i] {
				gap[i] = lo
			}
		case q[i] < r.Min[i]:
			gap[i] = r.Min[i] - q[i]
		case q[i] > r.Max[i]:
			gap[i] = q[i] - r.Max[i]
		}
	}
	return base.Distance(gap, zero)
}
