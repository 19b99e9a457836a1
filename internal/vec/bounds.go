package vec

import (
	"fmt"
	"math"
)

// Coordinatewise is implemented by metrics whose distance is a monotone
// function of the per-coordinate absolute differences |a_i - b_i|. For such
// metrics a valid lower bound on the distance from a query point to any
// point inside an axis-aligned rectangle is obtained by applying the metric
// to the per-coordinate gap vector (the "gap trick" used by geom).
//
// All Lp metrics and the weighted Euclidean metric are coordinatewise; the
// quadratic-form metric is not (its off-diagonal terms can shrink distances
// below the gap-vector value).
type Coordinatewise interface {
	Metric
	// CoordinatewiseMetric is a marker; implementations return true.
	CoordinatewiseMetric() bool
}

// CoordinatewiseMetric marks Euclidean as coordinatewise.
func (Euclidean) CoordinatewiseMetric() bool { return true }

// CoordinatewiseMetric marks Manhattan as coordinatewise.
func (Manhattan) CoordinatewiseMetric() bool { return true }

// CoordinatewiseMetric marks Chebyshev as coordinatewise.
func (Chebyshev) CoordinatewiseMetric() bool { return true }

// CoordinatewiseMetric marks Minkowski as coordinatewise.
func (Minkowski) CoordinatewiseMetric() bool { return true }

// CoordinatewiseMetric marks WeightedEuclidean as coordinatewise.
func (*WeightedEuclidean) CoordinatewiseMetric() bool { return true }

// BaseMetric strips Counting wrappers, returning the innermost metric.
// Geometric lower-bound computations use the base metric so that MBR
// distance evaluations are not charged as object distance calculations.
func BaseMetric(m Metric) Metric {
	for {
		c, ok := m.(*Counting)
		if !ok {
			return m
		}
		m = c.Unwrap()
	}
}

// BoxDistance returns m.Distance(gap, zero) for the gap vector between q
// and the axis-aligned box [lo, hi] — per coordinate the distance to the
// box (far == false: 0 inside it) or to its farther face (far == true) —
// without materializing either vector: the generalized MINDIST and MAXDIST
// of geom, which every index engine evaluates once per (page, query). ok is
// false when m is not one of the coordinatewise metrics this package ships;
// the caller then builds the gap vector itself.
//
// Each case repeats its metric's Distance loop with gap[i] - 0, which is
// gap[i] exactly, as the per-coordinate difference — the same terms in the
// same summation order, so the same bits.
func BoxDistance(m Metric, q, lo, hi Vector, far bool) (d float64, ok bool) {
	switch bm := m.(type) {
	case Euclidean:
		return boxEuclidean(q, lo, hi, far), true
	case Manhattan:
		return boxManhattan(q, lo, hi, far), true
	case Chebyshev:
		var mx float64
		for i := range q {
			if g := math.Abs(BoxGap(q[i], lo[i], hi[i], far)); g > mx {
				mx = g
			}
		}
		return mx, true
	case Minkowski:
		switch bm.p {
		case 1:
			return boxManhattan(q, lo, hi, far), true
		case 2:
			return boxEuclidean(q, lo, hi, far), true
		}
		var s float64
		for i := range q {
			s += bm.term(math.Abs(BoxGap(q[i], lo[i], hi[i], far)))
		}
		return math.Pow(s, bm.invp), true
	case *WeightedEuclidean:
		if len(q) != len(bm.weights) {
			panic(fmt.Sprintf("vec: weighted Euclidean configured for dim %d, got %d", len(bm.weights), len(q)))
		}
		var s float64
		for i := range q {
			g := BoxGap(q[i], lo[i], hi[i], far)
			s += bm.weights[i] * g * g
		}
		return math.Sqrt(s), true
	}
	return 0, false
}

// GapKernel takes a shipped coordinatewise metric's Distance(gap, zero)
// apart for callers whose boxes share few distinct gaps (the VA-file
// tabulates Term once per cell and query): the distance is Finish, which is
// monotone, of the Terms of gap[0], gap[1], … combined in that order, from
// 0, by + (by max when Max) — evaluated so, with the bits of Distance.
type GapKernel struct {
	Term   func(i int, g float64) float64
	Max    bool
	Finish func(s float64) float64
}

// GapKernelOf returns m's GapKernel; ok is as for BoxDistance.
func GapKernelOf(m Metric) (k GapKernel, ok bool) {
	square := func(_ int, g float64) float64 { return g * g }
	abs := func(_ int, g float64) float64 { return math.Abs(g) }
	same := func(s float64) float64 { return s }
	switch bm := m.(type) {
	case Euclidean:
		return GapKernel{Term: square, Finish: math.Sqrt}, true
	case Manhattan:
		return GapKernel{Term: abs, Finish: same}, true
	case Chebyshev:
		return GapKernel{Term: abs, Max: true, Finish: same}, true
	case Minkowski:
		switch bm.p {
		case 1:
			return GapKernel{Term: abs, Finish: same}, true
		case 2:
			return GapKernel{Term: square, Finish: math.Sqrt}, true
		}
		term := func(_ int, g float64) float64 { return bm.term(math.Abs(g)) }
		return GapKernel{Term: term, Finish: func(s float64) float64 { return math.Pow(s, bm.invp) }}, true
	case *WeightedEuclidean:
		term := func(i int, g float64) float64 { return bm.weights[i] * g * g }
		return GapKernel{Term: term, Finish: math.Sqrt}, true
	}
	return GapKernel{}, false
}

// BoxGap is one coordinate of the gap vector (see BoxDistance).
func BoxGap(q, lo, hi float64, far bool) float64 {
	if far {
		l, h := math.Abs(q-lo), math.Abs(q-hi)
		if l > h {
			return l
		}
		return h
	}
	switch {
	case q < lo:
		return lo - q
	case q > hi:
		return q - hi
	}
	return 0
}

func boxEuclidean(q, lo, hi Vector, far bool) float64 {
	var s float64
	for i := range q {
		g := BoxGap(q[i], lo[i], hi[i], far)
		s += g * g
	}
	return math.Sqrt(s)
}

func boxManhattan(q, lo, hi Vector, far bool) float64 {
	var s float64
	for i := range q {
		s += math.Abs(BoxGap(q[i], lo[i], hi[i], far))
	}
	return s
}
