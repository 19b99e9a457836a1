package vec

import (
	"fmt"
	"math"
)

// itemLanes is the width of one group of item rows: eight float64 lanes,
// two AVX2 registers, like a block of Rows.
const itemLanes = 8

// Items is the other half of the page pass's kernel: where Rows loads many
// queries and sweeps one item, Items takes one query and sweeps item rows,
// itemLanes at a time — the body for a page whose active set is too narrow
// to fill a block of Rows, and for a single query. Whatever body
// runs, a lane's outcome is DistanceWithin(query, row, limit) bit for bit:
// the same within flag and, where it holds, the same distance.
//
// For the Euclidean metric a lane is an item and never a dimension: the
// rows are taken by pointer wherever they live and transposed in registers
// four dimensions at a time, the query's coordinate is broadcast, and each
// lane adds its squared differences in strict index order, one multiply and
// one add per term and no fused multiply-add — the scalar kernel's
// roundings exactly. Every other metric takes the generic body, the
// metric's own DistanceWithin row by row.
//
// An Items holds no per-sweep state: one value serves any number of
// goroutines, and nothing allocates.
type Items struct {
	// bm is the generic body's kernel, nil when the Euclidean bodies run.
	bm BoundedMetric
	// asm selects the assembly body over the portable one. Fixed by
	// NewItems from the build and the CPU; tests clear it to run the
	// portable body on the same inputs.
	asm bool
}

// NewItems returns the item-lane kernel for m, by NewRows' rule: the
// Euclidean bodies for Euclidean and Minkowski p = 2, the generic body for
// anything else.
func NewItems(m BoundedMetric) *Items {
	if euclideanKernel(m) {
		return &Items{asm: haveAVX2}
	}
	return &Items{bm: m}
}

// euclideanKernel reports whether m's DistanceWithin is euclideanWithin.
func euclideanKernel(m Metric) bool {
	switch bm := m.(type) {
	case Euclidean:
		return true
	case Minkowski:
		return bm.p == 2
	}
	return false
}

// Sweep evaluates q against every row under one limit; it returns false
// only when no row is within it. dists[i], i < len(rows), is row i's exact
// distance or — only where that exceeds limit — some value that also exceeds it, so
// at any limit' <= limit the comparison dists[i] <= limit' is
// DistanceWithin(q, rows[i], limit')'s flag, and dists[i] the distance where
// it holds. That is what lets a caller whose limit tightens as it accepts
// rows resolve them in row order against the limit of the moment: the limit
// may fall between the rows of a sweep, but the sweep runs under the one it
// started with, and how many rows a caller hands over at once trades the
// calls saved against the abandonment a staler limit gives up, never a
// result.
func (k *Items) Sweep(q Vector, rows []Vector, limit float64, dists []float64) bool {
	dists = dists[:len(rows)]
	alive := false
	if k.bm != nil {
		for i, row := range rows {
			d, within := k.bm.DistanceWithin(q, row, limit)
			if !within {
				d = math.Inf(1)
			}
			dists[i] = d
			alive = alive || within
		}
		return alive
	}
	for _, row := range rows {
		if len(row) != len(q) {
			panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(q), len(row)))
		}
	}
	h := limit * limit * rowLimitSlack
	if !k.asm {
		return eucItemsGo(q, rows, h, dists)
	}
	full := len(rows) &^ (itemLanes - 1)
	if full > 0 {
		alive = eucItemsAVX2(q, rows[:full], h, dists)
	}
	if n := len(rows) - full; n > 0 {
		// The assembly takes whole groups: a short one repeats its first row,
		// which changes neither when the group stops nor the first n lanes.
		var group [itemLanes]Vector
		var out [itemLanes]float64
		copy(group[:], rows[full:])
		for j := n; j < itemLanes; j++ {
			group[j] = group[0]
		}
		alive = eucItemsAVX2(q, group[:], h, out[:]) || alive
		copy(dists[full:], out[:n])
	}
	return alive
}

// eucItemsGo is the portable Euclidean sweep and the definition of what the
// assembly computes. For each row, the running sum of squared differences
// to q in index order is compared with h = limit²·rowLimitSlack after every
// fourth dimension and after the last; sums only grow, so a row past h is
// provably farther than limit (see rowLimitSlack), stops there and gets
// +Inf. Any other row gets the root of its full sum, which is the scalar
// kernel's final line: the exact distance, within limit or in the 1e-10
// band above it — or NaN for a NaN sum, which is past nothing and within
// nothing. The result is whether any row got a root.
//
// The assembly takes the rows in groups of itemLanes, one lane each, and
// stops a group only when every lane is past h; where it stops is free,
// because a lane past h is +Inf in either body only if its whole group is,
// and otherwise holds a root that also exceeds limit. No comparison against
// a limit' <= limit can tell the two apart.
func eucItemsGo(q Vector, rows []Vector, h float64, dists []float64) bool {
	alive := false
	for j, row := range rows {
		row = row[:len(q)]
		var s float64
		i := 0
		for ; i+4 <= len(q) && !(s > h); i += 4 {
			d0 := q[i] - row[i]
			s += d0 * d0
			d1 := q[i+1] - row[i+1]
			s += d1 * d1
			d2 := q[i+2] - row[i+2]
			s += d2 * d2
			d3 := q[i+3] - row[i+3]
			s += d3 * d3
		}
		if !(s > h) {
			for ; i < len(q); i++ {
				d := q[i] - row[i]
				s += d * d
			}
		}
		if s > h {
			dists[j] = math.Inf(1)
			continue
		}
		dists[j] = math.Sqrt(s)
		alive = true
	}
	return alive
}
