// Package geom provides minimum bounding rectangles (MBRs) in d-dimensional
// space, the geometric substrate of the X-tree directory.
//
// The key query-processing primitive is MinDist: MINDIST is a lower bound on
// the distance from a query point to any point inside the rectangle, so a
// data page whose MBR has MINDIST greater than the current query distance
// can be excluded from the search.
package geom

import (
	"fmt"
	"math"

	"metricdb/internal/vec"
)

// Rect is an axis-aligned hyper-rectangle given by its lower-left and
// upper-right corners. A Rect with Min[i] > Max[i] for any i is invalid;
// the Empty rectangle (returned by EmptyRect) is the identity for Union.
type Rect struct {
	Min vec.Vector
	Max vec.Vector
}

// EmptyRect returns the empty rectangle in dim dimensions: the Union
// identity, containing no points.
func EmptyRect(dim int) Rect {
	r := Rect{Min: make(vec.Vector, dim), Max: make(vec.Vector, dim)}
	for i := 0; i < dim; i++ {
		r.Min[i] = math.Inf(1)
		r.Max[i] = math.Inf(-1)
	}
	return r
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p vec.Vector) Rect {
	return Rect{Min: p.Clone(), Max: p.Clone()}
}

// NewRect returns a rectangle with the given corners, validating that
// min[i] <= max[i] in every dimension.
func NewRect(min, max vec.Vector) (Rect, error) {
	if len(min) != len(max) {
		return Rect{}, fmt.Errorf("geom: corner dimensions differ: %d vs %d", len(min), len(max))
	}
	for i := range min {
		if min[i] > max[i] {
			return Rect{}, fmt.Errorf("geom: min[%d]=%g > max[%d]=%g", i, min[i], i, max[i])
		}
	}
	return Rect{Min: min.Clone(), Max: max.Clone()}, nil
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Min) }

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool {
	for i := range r.Min {
		if r.Min[i] > r.Max[i] {
			return true
		}
	}
	return len(r.Min) == 0
}

// Clone returns an independent copy of r.
func (r Rect) Clone() Rect {
	return Rect{Min: r.Min.Clone(), Max: r.Max.Clone()}
}

// Contains reports whether point p lies inside r (boundaries included).
func (r Rect) Contains(p vec.Vector) bool {
	for i := range r.Min {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	for i := range r.Min {
		if s.Min[i] < r.Min[i] || s.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	for i := range r.Min {
		if r.Min[i] > s.Max[i] || s.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s.Clone()
	}
	if s.IsEmpty() {
		return r.Clone()
	}
	u := r.Clone()
	for i := range u.Min {
		u.Min[i] = math.Min(u.Min[i], s.Min[i])
		u.Max[i] = math.Max(u.Max[i], s.Max[i])
	}
	return u
}

// Extend grows r in place to cover point p. An empty rectangle becomes the
// point rectangle of p.
func (r *Rect) Extend(p vec.Vector) {
	for i := range r.Min {
		if p[i] < r.Min[i] {
			r.Min[i] = p[i]
		}
		if p[i] > r.Max[i] {
			r.Max[i] = p[i]
		}
	}
}

// ExtendRect grows r in place to cover rectangle s.
func (r *Rect) ExtendRect(s Rect) {
	if s.IsEmpty() {
		return
	}
	for i := range r.Min {
		if s.Min[i] < r.Min[i] {
			r.Min[i] = s.Min[i]
		}
		if s.Max[i] > r.Max[i] {
			r.Max[i] = s.Max[i]
		}
	}
}

// Area returns the d-dimensional volume of r. An empty rectangle has area 0.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	a := 1.0
	for i := range r.Min {
		a *= r.Max[i] - r.Min[i]
	}
	return a
}

// Margin returns the sum of the edge lengths of r (the R*-tree margin
// criterion). An empty rectangle has margin 0.
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	var m float64
	for i := range r.Min {
		m += r.Max[i] - r.Min[i]
	}
	return m
}

// Overlap returns the volume of the intersection of r and s.
func (r Rect) Overlap(s Rect) float64 {
	if !r.Intersects(s) {
		return 0
	}
	v := 1.0
	for i := range r.Min {
		lo := math.Max(r.Min[i], s.Min[i])
		hi := math.Min(r.Max[i], s.Max[i])
		v *= hi - lo
	}
	return v
}

// Enlargement returns the increase in area needed for r to cover s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// AreaWithPoint returns the area of r grown to cover p, without
// materializing the union — the hot path of R*-style subtree choice.
func (r Rect) AreaWithPoint(p vec.Vector) float64 {
	a := 1.0
	for i := range r.Min {
		lo, hi := r.Min[i], r.Max[i]
		if p[i] < lo {
			lo = p[i]
		}
		if p[i] > hi {
			hi = p[i]
		}
		if lo > hi {
			return 0 // r was empty; a single point has zero volume
		}
		a *= hi - lo
	}
	return a
}

// OverlapWithPoint returns the overlap volume of (r grown to cover p) with
// o, without materializing the union.
func (r Rect) OverlapWithPoint(p vec.Vector, o Rect) float64 {
	v := 1.0
	for i := range r.Min {
		lo, hi := r.Min[i], r.Max[i]
		if p[i] < lo {
			lo = p[i]
		}
		if p[i] > hi {
			hi = p[i]
		}
		if o.Min[i] > lo {
			lo = o.Min[i]
		}
		if o.Max[i] < hi {
			hi = o.Max[i]
		}
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// Center returns the midpoint of r.
func (r Rect) Center() vec.Vector {
	c := make(vec.Vector, len(r.Min))
	for i := range c {
		c[i] = (r.Min[i] + r.Max[i]) / 2
	}
	return c
}

// MinDist returns MINDIST(p, r): the Euclidean distance from p to the
// nearest point of r, 0 if p is inside r. For any point q in r,
// dist(p, q) >= MinDist(p, r), which is what makes index pruning safe.
func (r Rect) MinDist(p vec.Vector) float64 {
	var s float64
	for i := range r.Min {
		var d float64
		switch {
		case p[i] < r.Min[i]:
			d = r.Min[i] - p[i]
		case p[i] > r.Max[i]:
			d = p[i] - r.Max[i]
		}
		s += d * d
	}
	return math.Sqrt(s)
}

// String renders the rectangle as "[min .. max]".
func (r Rect) String() string {
	return fmt.Sprintf("[%v .. %v]", r.Min, r.Max)
}

// BoundingRect returns the MBR of the given points. It returns the empty
// rectangle of dimension 0 when points is empty.
func BoundingRect(points []vec.Vector) Rect {
	if len(points) == 0 {
		return EmptyRect(0)
	}
	r := PointRect(points[0])
	for _, p := range points[1:] {
		r.Extend(p)
	}
	return r
}
