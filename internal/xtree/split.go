package xtree

import (
	"math"
	"sort"

	"metricdb/internal/geom"
)

// splitResult describes a candidate partition of a node's entries into two
// groups, identified by their indices into the original entry slice.
type splitResult struct {
	left, right         []int
	leftRect, rightRect geom.Rect
	overlap             float64 // volume of leftRect ∩ rightRect
	axis                int     // split dimension (for the split history)
}

// overlapRatio returns the overlap volume normalized by the volume of the
// union MBR — the quantity the X-tree compares against its MaxOverlap
// threshold when deciding between a split and a supernode. Degenerate
// (zero-volume) unions report ratio 0.
func (s splitResult) overlapRatio() float64 {
	u := s.leftRect.Union(s.rightRect).Area()
	if u <= 0 {
		return 0
	}
	return s.overlap / u
}

// splitScratch is the working memory of a split, owned by the Tree and
// reused across sort orders and splits: the prefix and suffix MBRs of every
// split position, views into one coordinate slab. What a split returns is
// copied out of it.
type splitScratch struct{ prefix, suffix []geom.Rect }

// topologicalSplit performs the R*-tree topological split over rects:
// the split axis is the one minimizing the total margin over all candidate
// distributions, and along that axis the distribution with minimal overlap
// (ties broken by minimal combined area) wins. minFill is the minimum group
// size; it is clamped to [1, len(rects)/2]. points says every rect is a
// point (Min == Max): sorting by upper edge then repeats the lower-edge
// order and its margin, which only a strictly smaller one beats, so the
// order is not tried.
func (s *splitScratch) topologicalSplit(rects []geom.Rect, minFill int, points bool) splitResult {
	n := len(rects)
	if minFill < 1 {
		minFill = 1
	}
	if minFill > n/2 {
		minFill = n / 2
	}
	dim := rects[0].Dim()

	bestAxis := 0
	bestAxisUpper := false
	bestMargin := -1.0
	for axis := 0; axis < dim; axis++ {
		for _, byUpper := range [2]bool{false, true} {
			if byUpper && points {
				continue
			}
			prefix, suffix := s.cumulativeRects(rects, sortedOrder(rects, axis, byUpper))
			margin := 0.0
			for k := minFill; k <= n-minFill; k++ {
				margin += prefix[k].Margin() + suffix[k].Margin()
			}
			if bestMargin < 0 || margin < bestMargin {
				bestMargin = margin
				bestAxis = axis
				bestAxisUpper = byUpper
			}
		}
	}

	order := sortedOrder(rects, bestAxis, bestAxisUpper)
	prefix, suffix := s.cumulativeRects(rects, order)
	bestK := -1
	bestScore := -1.0
	bestArea := 0.0
	for k := minFill; k <= n-minFill; k++ {
		ov := prefix[k].Overlap(suffix[k])
		area := prefix[k].Area() + suffix[k].Area()
		if bestScore < 0 || ov < bestScore || (ov == bestScore && area < bestArea) {
			bestK, bestScore, bestArea = k, ov, area
		}
	}
	return splitResult{
		left:      append([]int(nil), order[:bestK]...),
		right:     append([]int(nil), order[bestK:]...),
		leftRect:  prefix[bestK].Clone(),
		rightRect: suffix[bestK].Clone(),
		overlap:   bestScore,
		axis:      bestAxis,
	}
}

// cumulativeRects returns, for every split position k, the MBR of the
// first k entries (prefix[k]) and of the remaining entries (suffix[k]) in
// sorted order, computed in one linear pass instead of per-distribution —
// the difference between O(n²·d) and O(n·d) per axis. Both slices are the
// scratch's and hold until the next call.
func (s *splitScratch) cumulativeRects(rects []geom.Rect, order []int) (prefix, suffix []geom.Rect) {
	n := len(order)
	dim := rects[0].Dim()
	if len(s.prefix) <= n {
		slab := make([]float64, 4*dim*(n+1))
		s.prefix, s.suffix = make([]geom.Rect, n+1), make([]geom.Rect, n+1)
		for k := range s.prefix {
			row := slab[4*dim*k : 4*dim*(k+1)]
			s.prefix[k] = geom.Rect{Min: row[:dim:dim], Max: row[dim : 2*dim : 2*dim]}
			s.suffix[k] = geom.Rect{Min: row[2*dim : 3*dim : 3*dim], Max: row[3*dim:]}
		}
	}
	prefix, suffix = s.prefix[:n+1], s.suffix[:n+1]
	for i := 0; i < dim; i++ {
		prefix[0].Min[i], prefix[0].Max[i] = math.Inf(1), math.Inf(-1) // geom.EmptyRect
	}
	for k := 1; k <= n; k++ {
		setRect(prefix[k], prefix[k-1])
		prefix[k].ExtendRect(rects[order[k-1]])
	}
	setRect(suffix[n], prefix[0])
	for k := n - 1; k >= 0; k-- {
		setRect(suffix[k], suffix[k+1])
		suffix[k].ExtendRect(rects[order[k]])
	}
	return prefix, suffix
}

// setRect overwrites dst's coordinates with src's.
func setRect(dst, src geom.Rect) {
	copy(dst.Min, src.Min)
	copy(dst.Max, src.Max)
}

// sortedOrder returns entry indices sorted along axis by lower edge (or
// upper edge when byUpper), with the other edge and index as tie-breakers
// for determinism.
func sortedOrder(rects []geom.Rect, axis int, byUpper bool) []int {
	order := make([]int, len(rects))
	for i := range order {
		order[i] = i
	}
	key := func(i int) (float64, float64) {
		if byUpper {
			return rects[i].Max[axis], rects[i].Min[axis]
		}
		return rects[i].Min[axis], rects[i].Max[axis]
	}
	sort.Slice(order, func(a, b int) bool {
		pa, sa := key(order[a])
		pb, sb := key(order[b])
		if pa != pb {
			return pa < pb
		}
		if sa != sb {
			return sa < sb
		}
		return order[a] < order[b]
	})
	return order
}
