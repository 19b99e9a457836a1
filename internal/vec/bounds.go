package vec

import "math"

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

// GapKernel takes a shipped coordinatewise metric's Distance(gap, zero)
// apart, for Boxes and for callers whose boxes share few distinct gaps (the
// VA-file tabulates Term once per cell and query): the distance is Finish, which is
// monotone, of the Terms of gap[0], gap[1], … combined in that order, from
// 0, by + (by max when Max) — evaluated so, with the bits of Distance.
type GapKernel struct {
	Term   func(i int, g float64) float64
	Max    bool
	Finish func(s float64) float64
}

// GapKernelOf returns m's GapKernel; ok is false when m is not one of the
// coordinatewise metrics this package ships.
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

// BoxGap is one coordinate of the gap vector between q and the axis-aligned
// box [lo, hi]: the distance to the box, 0 inside it. A metric applied to the
// gap vector and the origin is the generalized MINDIST of the box (see
// Boxes).
func BoxGap(q, lo, hi float64) float64 {
	switch {
	case q < lo:
		return lo - q
	case q > hi:
		return q - hi
	}
	return 0
}
