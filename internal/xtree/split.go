package xtree

import (
	"cmp"
	"math"
	"slices"

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
// reused across sort orders and splits: the entry rects of the node being
// split, the sort keys, two entry orders — the one being tried and the best
// so far, swapped when the tried one wins — the running MBR and suffix
// margins of marginSum, and the prefix and suffix MBRs of every split
// position, views into one coordinate slab. What a split returns is copied
// out of it.
type splitScratch struct {
	rects          []geom.Rect
	keys           []splitKey
	order, best    []int
	lo, hi         []float64
	margins        []float64
	prefix, suffix []geom.Rect
}

// splitKey is one entry's sort key along an axis: the edge sorted by, the
// other edge, and the entry's index. cmpSplitKey orders keys by the three
// in turn, a strict total order on finite edges, so every correct sort
// yields the same permutation.
type splitKey struct {
	lead, trail float64
	idx         int
}

func cmpSplitKey(a, b splitKey) int {
	switch {
	case a.lead < b.lead:
		return -1
	case a.lead > b.lead:
		return 1
	case a.trail < b.trail:
		return -1
	case a.trail > b.trail:
		return 1
	}
	return cmp.Compare(a.idx, b.idx)
}

// topologicalSplit performs the R*-tree topological split over rects:
// the split axis is the one minimizing the total margin over all candidate
// distributions, and along that axis the distribution with minimal overlap
// (ties broken by minimal combined area) wins. minFill is the minimum group
// size; it is clamped to [1, len(rects)/2]. points says every rect is a
// point (Min == Max): sorting by upper edge then repeats the lower-edge
// order and its margin, which only a strictly smaller one beats, so the
// order is not tried. There are at least two rects, none of them empty.
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
	bestMargin := -1.0
	for axis := 0; axis < dim; axis++ {
		for _, byUpper := range [2]bool{false, true} {
			if byUpper && points {
				continue
			}
			s.sortAxis(rects, axis, byUpper)
			if margin := s.marginSum(rects, minFill); bestMargin < 0 || margin < bestMargin {
				bestMargin = margin
				bestAxis = axis
				s.order, s.best = s.best, s.order // keep the winner's order
			}
		}
	}

	order := s.best
	prefix, suffix := s.cumulate(rects, order)
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

// sortAxis sorts the entries along axis — by lower edge, or by upper edge
// when byUpper, with the other edge and the index as tie-breakers — into
// s.order.
func (s *splitScratch) sortAxis(rects []geom.Rect, axis int, byUpper bool) {
	keys := s.keys[:0]
	for i, r := range rects {
		k := splitKey{lead: r.Min[axis], trail: r.Max[axis], idx: i}
		if byUpper {
			k.lead, k.trail = k.trail, k.lead
		}
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmpSplitKey)
	order := s.order[:0]
	for _, k := range keys {
		order = append(order, k.idx)
	}
	s.keys, s.order = keys, order
}

// marginSum returns the margin criterion of s.order: the sum over
// the distributions k ∈ [minFill, n−minFill] of the margins of the first k
// entries' MBR and of the rest's, added in ascending k as
// prefix[k].Margin() + suffix[k].Margin() — without materializing the MBRs.
// A running MBR grows entry by entry as cumulate grows its prefixes and
// suffixes, and each margin adds its edge lengths in dimension order, as
// Margin does for a non-empty rect.
func (s *splitScratch) marginSum(rects []geom.Rect, minFill int) float64 {
	order := s.order
	n, dim := len(order), rects[0].Dim()
	if cap(s.lo) < dim {
		s.lo, s.hi = make([]float64, dim), make([]float64, dim)
	}
	if cap(s.margins) < n+1 {
		s.margins = make([]float64, n+1)
	}
	lo, hi, suffix := s.lo[:dim], s.hi[:dim], s.margins[:n+1]
	grow := func(r geom.Rect) float64 {
		m := 0.0
		for i := range lo {
			if r.Min[i] < lo[i] {
				lo[i] = r.Min[i]
			}
			if r.Max[i] > hi[i] {
				hi[i] = r.Max[i]
			}
			m += hi[i] - lo[i]
		}
		return m
	}
	empty := func() {
		for i := range lo {
			lo[i], hi[i] = math.Inf(1), math.Inf(-1)
		}
	}
	empty()
	for k := n - 1; k >= minFill; k-- {
		suffix[k] = grow(rects[order[k]])
	}
	empty()
	total := 0.0
	for k := 1; k <= n-minFill; k++ {
		if m := grow(rects[order[k-1]]); k >= minFill {
			total += m + suffix[k]
		}
	}
	return total
}

// cumulate returns, for every split position k, the MBR of the first k
// entries in order (prefix[k]) and of the remaining entries (suffix[k]),
// computed in one linear pass that extends both at once — O(n·d) per order
// instead of O(n²·d) per distribution. Each step writes the previous MBR
// extended by the entry under ExtendRect's comparisons; that ExtendRect
// skips an empty entry is why none may be empty. Both slices hold until the
// next call.
func (s *splitScratch) cumulate(rects []geom.Rect, order []int) (prefix, suffix []geom.Rect) {
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
		suffix[n].Min[i], suffix[n].Max[i] = math.Inf(1), math.Inf(-1)
	}
	for k := 1; k <= n; k++ {
		p, pp, a := prefix[k], prefix[k-1], rects[order[k-1]]
		j := n - k
		q, qq, b := suffix[j], suffix[j+1], rects[order[j]]
		for i := 0; i < dim; i++ {
			lo, hi := pp.Min[i], pp.Max[i]
			if a.Min[i] < lo {
				lo = a.Min[i]
			}
			if a.Max[i] > hi {
				hi = a.Max[i]
			}
			p.Min[i], p.Max[i] = lo, hi
			lo, hi = qq.Min[i], qq.Max[i]
			if b.Min[i] < lo {
				lo = b.Min[i]
			}
			if b.Max[i] > hi {
				hi = b.Max[i]
			}
			q.Min[i], q.Max[i] = lo, hi
		}
	}
	return prefix, suffix
}
