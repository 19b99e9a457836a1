package vec

import (
	"fmt"
	"math"
)

// Block is the columnar (SoA) representation of one page's item
// coordinates: a single contiguous item-major float64 buffer instead of
// one heap allocation per item.
//
//	F64:   [item0 d0..dDim-1 | item1 d0..dDim-1 | ...]   8·Dim bytes/item
//
// Page Items alias rows of F64 (Item(i) returns a subslice, never a copy),
// so every per-pair code path reads the exact same float64 values whether
// or not a block is attached — attaching one can change memory placement
// but never results.
type Block struct {
	// Dim is the dimensionality of every row.
	Dim int
	// N is the number of items in the block.
	N int
	// F64 is the item-major coordinate buffer, len N*Dim. Always non-nil
	// for a built block.
	F64 []float64
}

// NewBlock allocates a block for n items of the given dimensionality.
func NewBlock(dim, n int) *Block {
	return &Block{Dim: dim, N: n, F64: make([]float64, n*dim)}
}

// Item returns row i of the float64 buffer as a Vector. The returned slice
// aliases the block.
func (b *Block) Item(i int) Vector {
	return b.F64[i*b.Dim : (i+1)*b.Dim : (i+1)*b.Dim]
}

// SetItem copies v into row i of the float64 buffer.
func (b *Block) SetItem(i int, v Vector) {
	if len(v) != b.Dim {
		panic(fmt.Sprintf("vec: block row dim %d, vector dim %d", b.Dim, len(v)))
	}
	copy(b.F64[i*b.Dim:(i+1)*b.Dim], v)
}

// BlockKernel evaluates one item of a columnar block against many queries
// at once: the row-at-a-time building block of the blocked page pass. The
// m-queries × page-items tile streams each item row through the cache once
// for the whole active set, and the per-metric implementations call the
// exact scalar kernel bodies (euclideanWithin and friends), so the results
// — d, within, and the abandon point — are bit-identical to m independent
// DistanceWithin calls with the same limits.
type BlockKernel interface {
	// RowWithin evaluates every query against item i of b under the
	// per-query limits, writing distances to dOut and within flags to
	// wOut (both len(queries)), and returns how many evaluations the
	// limits resolved (within == false). Each within flag is bit-identical
	// to DistanceWithin(queries[a], b.Item(i), limits[a]), and so is
	// dOut[a] wherever wOut[a] holds; an abandoned lane's dOut is some
	// value exceeding its limit (the specialized kernels report +Inf
	// rather than pay the scalar kernel's abandon-point square root), and
	// the page passes never read it.
	RowWithin(queries []Vector, b *Block, i int, limits []float64, dOut []float64, wOut []bool) int
}

// NewBlockKernel returns the blocked kernel for m: a specialized
// implementation for the metrics with native scalar kernels, and a generic
// per-query fallback (same results, no devirtualization win) for anything
// else. Minkowski p ∈ {1, 2} resolves to the L1/L2 kernels, matching the
// scalar delegation.
func NewBlockKernel(m BoundedMetric) BlockKernel {
	switch bm := m.(type) {
	case Euclidean:
		return eucBlockKernel{}
	case Manhattan:
		return manBlockKernel{}
	case Chebyshev:
		return chebBlockKernel{}
	case Minkowski:
		switch bm.p {
		case 1:
			return manBlockKernel{}
		case 2:
			return eucBlockKernel{}
		}
		return minkBlockKernel{m: bm}
	case *WeightedEuclidean:
		return wgtBlockKernel{m: bm}
	}
	return genericBlockKernel{bm: m}
}

// eucBlockKernel is the Euclidean row kernel. Queries are processed in
// groups of four so the item row — just loaded into L1 — feeds four
// independent accumulation chains; when none of the group's limits is
// finite the check-free interleaved fast path (euclideanRow4Inf) runs,
// otherwise the bounded interleaved path (euclideanRow4) does, whose
// flags and within-distances match the scalar kernel bit-for-bit.
type eucBlockKernel struct{}

func (eucBlockKernel) RowWithin(queries []Vector, b *Block, i int, limits []float64, dOut []float64, wOut []bool) int {
	it := b.Item(i)
	inf := math.Inf(1)
	ab := 0
	a := 0
	for ; a+4 <= len(queries); a += 4 {
		if limits[a] == inf && limits[a+1] == inf && limits[a+2] == inf && limits[a+3] == inf {
			euclideanRow4Inf(queries[a], queries[a+1], queries[a+2], queries[a+3], it, dOut[a:a+4])
			wOut[a], wOut[a+1], wOut[a+2], wOut[a+3] = true, true, true, true
			continue
		}
		ab += euclideanRow4(queries[a], queries[a+1], queries[a+2], queries[a+3], it,
			limits[a:a+4], dOut[a:a+4], wOut[a:a+4])
	}
	for ; a < len(queries); a++ {
		d, w := euclideanWithin(queries[a], it, limits[a])
		dOut[a], wOut[a] = d, w
		if !w {
			ab++
		}
	}
	return ab
}

// euclideanRow4Inf accumulates four unbounded Euclidean distances against
// one item row with element-interleaved lanes: four independent dependency
// chains keep the FPU busy where the scalar kernel's single running sum is
// latency-bound. Per lane the additions happen in strict index order, so
// each result is bit-equal to euclideanWithin(q, it, +Inf).
func euclideanRow4Inf(q0, q1, q2, q3, it Vector, dOut []float64) {
	mustSameDim(q0, it)
	mustSameDim(q1, it)
	mustSameDim(q2, it)
	mustSameDim(q3, it)
	n := len(it)
	q0, q1, q2, q3 = q0[:n], q1[:n], q2[:n], q3[:n]
	dOut = dOut[:4]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		v0, v1, v2, v3 := it[i], it[i+1], it[i+2], it[i+3]
		e00 := q0[i] - v0
		s0 += e00 * e00
		e10 := q1[i] - v0
		s1 += e10 * e10
		e20 := q2[i] - v0
		s2 += e20 * e20
		e30 := q3[i] - v0
		s3 += e30 * e30
		e01 := q0[i+1] - v1
		s0 += e01 * e01
		e11 := q1[i+1] - v1
		s1 += e11 * e11
		e21 := q2[i+1] - v1
		s2 += e21 * e21
		e31 := q3[i+1] - v1
		s3 += e31 * e31
		e02 := q0[i+2] - v2
		s0 += e02 * e02
		e12 := q1[i+2] - v2
		s1 += e12 * e12
		e22 := q2[i+2] - v2
		s2 += e22 * e22
		e32 := q3[i+2] - v2
		s3 += e32 * e32
		e03 := q0[i+3] - v3
		s0 += e03 * e03
		e13 := q1[i+3] - v3
		s1 += e13 * e13
		e23 := q2[i+3] - v3
		s2 += e23 * e23
		e33 := q3[i+3] - v3
		s3 += e33 * e33
	}
	for ; i < n; i++ {
		v := it[i]
		e0 := q0[i] - v
		s0 += e0 * e0
		e1 := q1[i] - v
		s1 += e1 * e1
		e2 := q2[i] - v
		s2 += e2 * e2
		e3 := q3[i] - v
		s3 += e3 * e3
	}
	dOut[0] = math.Sqrt(s0)
	dOut[1] = math.Sqrt(s1)
	dOut[2] = math.Sqrt(s2)
	dOut[3] = math.Sqrt(s3)
}

// rowLimitSlack widens the squared-limit screen of the bounded row kernel.
// The guarantee needed is one-sided: s > fl(fl(limit²)·rowLimitSlack) must
// imply sqrt(s) > limit, so a lane can be declared abandoned without a
// square root. Each rounding contributes ~1.1e-16 of relative error while
// the slack adds 1e-10 of headroom, so the implication holds with margin;
// lanes in the (at most ~1e-10-wide) band above the exact squared limit
// simply fall through to the exact square-root comparison.
const rowLimitSlack = 1 + 1e-10

// eucLane resolves one lane of euclideanRow4 from its full squared sum:
// past the widened screen h the lane is abandoned without a square root
// (reported as +Inf — see the RowWithin contract), otherwise the exact
// comparison decides, which is the scalar kernel's final check verbatim.
func eucLane(s, limit, h float64) (float64, bool) {
	if s > h {
		return math.Inf(1), false
	}
	d := math.Sqrt(s)
	return d, d <= limit
}

// euclideanRow4 is the bounded counterpart of euclideanRow4Inf: four
// element-interleaved accumulation chains over one item row, with the
// scalar kernel's running limit checks replaced by one group check per
// chunk — sums only grow, so once every lane exceeds its widened squared
// limit all four are provably abandoned and the row stops — and a
// squared-domain screen per lane at the end. Abandoned lanes never pay the
// square root the scalar kernel computes at its abandon point; that and
// the removed per-chunk branch-and-sqrt are where the bounded row path
// gains over per-pair evaluation. Flags and abandon counts still match
// euclideanWithin exactly: per lane the additions happen in strict index
// order, and both loops decide within ⟺ sqrt(full sum) <= limit (the
// scalar early return fires only when that predicate already fails, and a
// sum that stays under the limit is accumulated to the end by both).
func euclideanRow4(q0, q1, q2, q3, it Vector, limits, dOut []float64, wOut []bool) int {
	mustSameDim(q0, it)
	mustSameDim(q1, it)
	mustSameDim(q2, it)
	mustSameDim(q3, it)
	n := len(it)
	// Reslicing to the common length lets the compiler retire the bounds
	// checks inside the chunk loop (it cannot see the equality mustSameDim
	// established); likewise pinning the lane outputs to exactly four.
	q0, q1, q2, q3 = q0[:n], q1[:n], q2[:n], q3[:n]
	limits, dOut, wOut = limits[:4], dOut[:4], wOut[:4]
	h0 := limits[0] * limits[0] * rowLimitSlack
	h1 := limits[1] * limits[1] * rowLimitSlack
	h2 := limits[2] * limits[2] * rowLimitSlack
	h3 := limits[3] * limits[3] * rowLimitSlack
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		v0, v1, v2, v3 := it[i], it[i+1], it[i+2], it[i+3]
		e00 := q0[i] - v0
		s0 += e00 * e00
		e10 := q1[i] - v0
		s1 += e10 * e10
		e20 := q2[i] - v0
		s2 += e20 * e20
		e30 := q3[i] - v0
		s3 += e30 * e30
		e01 := q0[i+1] - v1
		s0 += e01 * e01
		e11 := q1[i+1] - v1
		s1 += e11 * e11
		e21 := q2[i+1] - v1
		s2 += e21 * e21
		e31 := q3[i+1] - v1
		s3 += e31 * e31
		e02 := q0[i+2] - v2
		s0 += e02 * e02
		e12 := q1[i+2] - v2
		s1 += e12 * e12
		e22 := q2[i+2] - v2
		s2 += e22 * e22
		e32 := q3[i+2] - v2
		s3 += e32 * e32
		e03 := q0[i+3] - v3
		s0 += e03 * e03
		e13 := q1[i+3] - v3
		s1 += e13 * e13
		e23 := q2[i+3] - v3
		s2 += e23 * e23
		e33 := q3[i+3] - v3
		s3 += e33 * e33
		// Group check only while chunks remain: on the last chunk the
		// per-lane resolve below performs the same screens anyway.
		if i+8 <= n && s0 > h0 && s1 > h1 && s2 > h2 && s3 > h3 {
			inf := math.Inf(1)
			dOut[0], dOut[1], dOut[2], dOut[3] = inf, inf, inf, inf
			wOut[0], wOut[1], wOut[2], wOut[3] = false, false, false, false
			return 4
		}
	}
	for ; i < n; i++ {
		v := it[i]
		e0 := q0[i] - v
		s0 += e0 * e0
		e1 := q1[i] - v
		s1 += e1 * e1
		e2 := q2[i] - v
		s2 += e2 * e2
		e3 := q3[i] - v
		s3 += e3 * e3
	}
	ab := 0
	var w bool
	if dOut[0], w = eucLane(s0, limits[0], h0); !w {
		ab++
	}
	wOut[0] = w
	if dOut[1], w = eucLane(s1, limits[1], h1); !w {
		ab++
	}
	wOut[1] = w
	if dOut[2], w = eucLane(s2, limits[2], h2); !w {
		ab++
	}
	wOut[2] = w
	if dOut[3], w = eucLane(s3, limits[3], h3); !w {
		ab++
	}
	wOut[3] = w
	return ab
}

// manBlockKernel is the L1 row kernel.
type manBlockKernel struct{}

func (manBlockKernel) RowWithin(queries []Vector, b *Block, i int, limits []float64, dOut []float64, wOut []bool) int {
	it := b.Item(i)
	ab := 0
	for a := range queries {
		d, w := manhattanWithin(queries[a], it, limits[a])
		dOut[a], wOut[a] = d, w
		if !w {
			ab++
		}
	}
	return ab
}

// chebBlockKernel is the L∞ row kernel.
type chebBlockKernel struct{}

func (chebBlockKernel) RowWithin(queries []Vector, b *Block, i int, limits []float64, dOut []float64, wOut []bool) int {
	it := b.Item(i)
	ab := 0
	for a := range queries {
		d, w := chebyshevWithin(queries[a], it, limits[a])
		dOut[a], wOut[a] = d, w
		if !w {
			ab++
		}
	}
	return ab
}

// minkBlockKernel is the general-order Lp row kernel (p ∉ {1, 2}).
type minkBlockKernel struct{ m Minkowski }

func (k minkBlockKernel) RowWithin(queries []Vector, b *Block, i int, limits []float64, dOut []float64, wOut []bool) int {
	it := b.Item(i)
	ab := 0
	for a := range queries {
		d, w := minkowskiWithin(k.m, queries[a], it, limits[a])
		dOut[a], wOut[a] = d, w
		if !w {
			ab++
		}
	}
	return ab
}

// wgtBlockKernel is the weighted-L2 row kernel.
type wgtBlockKernel struct{ m *WeightedEuclidean }

func (k wgtBlockKernel) RowWithin(queries []Vector, b *Block, i int, limits []float64, dOut []float64, wOut []bool) int {
	it := b.Item(i)
	ab := 0
	for a := range queries {
		d, w := k.m.DistanceWithin(queries[a], it, limits[a])
		dOut[a], wOut[a] = d, w
		if !w {
			ab++
		}
	}
	return ab
}

// genericBlockKernel evaluates rows through the wrapped BoundedMetric —
// the fallback for metrics without a specialized kernel. Results are
// identical to per-pair calls by construction; only the dispatch saving is
// lost.
type genericBlockKernel struct{ bm BoundedMetric }

func (k genericBlockKernel) RowWithin(queries []Vector, b *Block, i int, limits []float64, dOut []float64, wOut []bool) int {
	it := b.Item(i)
	ab := 0
	for a := range queries {
		d, w := k.bm.DistanceWithin(queries[a], it, limits[a])
		dOut[a], wOut[a] = d, w
		if !w {
			ab++
		}
	}
	return ab
}
