package vec

import (
	"fmt"
	"math"
	"unsafe"
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
// For the Euclidean metric a lane is an item and never a dimension: each
// row's header is read where its record holds it (SweepRecords), the rows
// are taken by pointer wherever they live and transposed in registers
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

// MaxSweepRows is the most rows one Sweep or SweepRecords call takes: one
// bit each of the mask it returns.
const MaxSweepRows = 64

// Sweep evaluates q against every row under one limit, at most
// MaxSweepRows of them, and returns a mask with bit i set for every row i
// within it. dists[i], i < len(rows), is row i's exact distance or — only
// where that exceeds limit — some value that also exceeds it; where bit i
// is clear, it exceeds limit. So at any limit' <= limit the comparison
// dists[i] <= limit', for the rows whose bits are set, is DistanceWithin(q,
// rows[i], limit')'s flag, and dists[i] the distance where it holds. That
// is what lets a caller whose limit tightens as it accepts rows resolve
// them in row order against the limit of the moment, walking only the set
// bits: the limit may fall between the rows of a sweep, but the sweep runs
// under the one it started with, and how many rows a caller hands over at
// once trades the calls saved against the abandonment a staler limit gives
// up, never a result. A set bit promises nothing more: a row in the band
// just above limit may have one.
func (k *Items) Sweep(q Vector, rows []Vector, limit float64, dists []float64) uint64 {
	return SweepRecords(k, q, rows, func(v *Vector) *Vector { return v }, limit, dists)
}

// SweepRecords is Sweep over vectors that live in records: row i is
// *vecOf(&recs[i]), read where it lies, one record's size after the row
// before it, and never gathered. vecOf must give a field of the record it
// is handed — it is asked once, for recs[0], and SweepRecords panics unless
// the vector lies inside that record.
func SweepRecords[R any](k *Items, q Vector, recs []R, vecOf func(*R) *Vector, limit float64, dists []float64) uint64 {
	if len(recs) == 0 {
		return 0
	}
	rec, size := unsafe.Pointer(&recs[0]), unsafe.Sizeof(recs[0])
	row := unsafe.Pointer(vecOf(&recs[0]))
	if off := uintptr(row) - uintptr(rec); off > size || size-off < unsafe.Sizeof(Vector{}) {
		panic("vec: SweepRecords: the vector does not lie inside its record")
	}
	return k.sweep(q, records{row, size, len(recs)}, limit, dists)
}

// records is n vector headers in place, the first at first and each next
// one stride bytes on.
type records struct {
	first  unsafe.Pointer
	stride uintptr
	n      int
}

// row returns the i'th vector; i < n.
func (r records) row(i int) Vector {
	return *(*Vector)(unsafe.Add(r.first, uintptr(i)*r.stride))
}

// mismatch panics with the first row whose length is not len(q)'s.
func (r records) mismatch(q Vector) {
	for i := range r.n {
		if row := r.row(i); len(row) != len(q) {
			panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(q), len(row)))
		}
	}
}

// sweep is Sweep over rows, whichever entry they came through.
func (k *Items) sweep(q Vector, rows records, limit float64, dists []float64) uint64 {
	if rows.n > MaxSweepRows {
		panic(fmt.Sprintf("vec: a sweep of %d rows, more than %d", rows.n, MaxSweepRows))
	}
	dists = dists[:rows.n]
	if k.bm != nil {
		var within uint64
		for i := range dists {
			d, ok := k.bm.DistanceWithin(q, rows.row(i), limit)
			if ok {
				within |= 1 << i
			} else {
				d = math.Inf(1)
			}
			dists[i] = d
		}
		return within
	}
	h := limit * limit * rowLimitSlack
	if !k.asm {
		return eucItemsGo(q, rows, h, dists)
	}
	if rows.n >= itemLanes {
		within, ok := eucItemsAVX2(q, rows.first, rows.stride, rows.n, h, dists)
		if !ok {
			rows.mismatch(q)
		}
		return within
	}
	// The assembly takes at least one whole group: a short sweep repeats
	// its first row, which changes neither when the group stops nor the
	// first n lanes.
	var group [itemLanes]Vector
	var out [itemLanes]float64
	for j := range group {
		if j < rows.n {
			group[j] = rows.row(j)
		} else {
			group[j] = group[0]
		}
	}
	within, ok := eucItemsAVX2(q, unsafe.Pointer(&group[0]), unsafe.Sizeof(Vector{}), itemLanes, h, out[:])
	if !ok {
		rows.mismatch(q)
	}
	copy(dists, out[:])
	return within & (1<<rows.n - 1)
}

// eucItemsGo is the portable Euclidean sweep and the definition of what the
// assembly computes. For each row, the running sum of squared differences
// to q in index order is compared with h = limit²·rowLimitSlack after every
// fourth dimension and after the last; sums only grow, so a row past h is
// provably farther than limit (see rowLimitSlack), stops there and gets
// +Inf. Any other row gets the root of its full sum, which is the scalar
// kernel's final line: the exact distance, within limit or in the 1e-10
// band above it — or NaN for a NaN sum, which is past nothing and within
// nothing. The result has bit j set for each row j that got a root. A row
// whose length is not len(q)'s panics before any of its coordinates is
// read.
//
// The assembly takes the rows in groups of itemLanes, one lane each, and
// stops a group only when every lane is past h; where it stops is free,
// because a lane past h is +Inf in either body only if its whole group is,
// and otherwise holds a root that also exceeds limit. No comparison against
// a limit' <= limit can tell the two apart, and the bits are the same: a
// sum past h at some check is past it at the last.
func eucItemsGo(q Vector, rows records, h float64, dists []float64) uint64 {
	var within uint64
	for j := range rows.n {
		row := rows.row(j)
		if len(row) != len(q) {
			rows.mismatch(q)
		}
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
		within |= 1 << j
	}
	return within
}
