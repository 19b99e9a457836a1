package vec

import (
	"fmt"
	"math"
)

// boxLanes is the width of one group of boxes: four float64 lanes, one AVX2
// register of lower faces and one of upper faces.
const boxLanes = 4

// boxStride is the distance in a group from one dimension's faces to the
// next's: boxLanes lower faces, then boxLanes upper faces.
const boxStride = 2 * boxLanes

// Boxes is the third turn of the idea behind Rows and Items — lanes are
// axis-aligned boxes: an immutable list of (lo, hi) rectangles, the child
// MBRs of a directory node or the MBRs of every data page, laid out so that
// one query's generalized MINDIST to all of them is a sweep.
// Whatever body runs, a box's bound is the metric applied to the gap vector
// between the query and the box (see BoxGap), bit for bit: exact for every
// coordinatewise metric, and 0 — always safe, never selective — for a metric
// that is not coordinatewise. Counting wrappers are stripped, so a
// bound is never charged as an object distance calculation.
//
// The boxes are stored in groups of boxLanes: per group and dimension the
// four lower faces, then the four upper faces (64 bytes, one cache line); a
// short last group repeats its last box. For the Euclidean metric a lane is a
// box and never a dimension: the query's coordinate is broadcast, the gap is
// max(lo−q, q−hi, 0) — BoxGap term for term wherever lo ≤ hi, and on the
// empty rectangle (+Inf, −Inf) — and each
// lane adds its squared gaps in strict dimension order, one multiply and one
// add per term, no fused multiply-add, one root at the end. Every other
// metric takes its boxes one at a time through its GapKernel, a metric from
// elsewhere through its own Distance on the materialized gap vector.
//
// A Boxes holds no per-sweep state: one value serves any number of
// goroutines.
type Boxes struct {
	n, dim int
	data   []float64
	body   boxBody
	// asm selects the assembly body over the portable one (Euclidean only),
	// by NewItems' rule; tests clear it to run the portable body.
	asm    bool
	kernel GapKernel // boxByKernel
	metric Metric    // boxByGapVector
}

type boxBody uint8

const (
	boxUnknown     boxBody = iota // not coordinatewise: 0
	boxEuclidean                  // the lane bodies
	boxByKernel                   // a shipped coordinatewise metric
	boxByGapVector                // a coordinatewise metric from elsewhere
)

// NewBoxes lays out the boxes [lo[i], hi[i]] for bounds under m. Every
// vector must have the same dimension.
func NewBoxes(m Metric, lo, hi []Vector) *Boxes {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("vec: %d lower corners for %d upper corners", len(lo), len(hi)))
	}
	b := &Boxes{n: len(lo)}
	if b.n == 0 {
		return b
	}
	b.dim = len(lo[0])
	groups := (b.n + boxLanes - 1) / boxLanes
	b.data = make([]float64, groups*b.dim*boxStride)
	for l := 0; l < groups*boxLanes; l++ {
		i := min(l, b.n-1)
		if len(lo[i]) != b.dim || len(hi[i]) != b.dim {
			panic(fmt.Sprintf("vec: box %d has dimension %d/%d, box 0 has %d", i, len(lo[i]), len(hi[i]), b.dim))
		}
		f := b.data[b.faces(l):]
		for d := 0; d < b.dim; d++ {
			f[d*boxStride], f[d*boxStride+boxLanes] = lo[i][d], hi[i][d]
		}
	}

	base := BaseMetric(m)
	if cw, ok := base.(Coordinatewise); !ok || !cw.CoordinatewiseMetric() {
		return b
	}
	if euclideanKernel(base) {
		b.body, b.asm = boxEuclidean, haveAVX2
	} else if k, ok := GapKernelOf(base); ok {
		if we, ok := base.(*WeightedEuclidean); ok && len(we.weights) != b.dim {
			panic(fmt.Sprintf("vec: weighted Euclidean configured for dim %d, got %d", len(we.weights), b.dim))
		}
		b.body, b.kernel = boxByKernel, k
	} else {
		b.body, b.metric = boxByGapVector, base
	}
	return b
}

// faces is the index in data of box i's first lower face; dimension d's is
// d·boxStride further on and its upper face boxLanes beyond that.
func (b *Boxes) faces(i int) int {
	return i/boxLanes*b.dim*boxStride + i%boxLanes
}

// Sweep writes to dst[i] the bound from q to box from+i — the generalized
// MINDIST — for every i < len(dst). from must be a multiple of four: a
// caller with less scratch than boxes sweeps them in chunks. It panics when
// q is not of the boxes' dimension.
func (b *Boxes) Sweep(q Vector, from int, dst []float64) {
	b.check(q)
	if from%boxLanes != 0 || from+len(dst) > b.n {
		panic(fmt.Sprintf("vec: sweep of boxes [%d, %d) of %d", from, from+len(dst), b.n))
	}
	if b.body != boxEuclidean {
		for i := range dst {
			dst[i] = b.bound(q, from+i)
		}
		return
	}
	full := len(dst) &^ (boxLanes - 1)
	b.lanes(q, from, dst[:full])
	if full < len(dst) {
		var out [boxLanes]float64
		b.lanes(q, from+full, out[:])
		copy(dst[full:], out[:])
	}
}

// Bound is Sweep for box i alone. The assembly runs the box's whole group,
// which costs it what one lane does; in Go three idle lanes cost three boxes.
func (b *Boxes) Bound(q Vector, i int) float64 {
	b.check(q)
	if !b.asm {
		return b.bound(q, i)
	}
	var out [boxLanes]float64
	b.lanes(q, i&^(boxLanes-1), out[:])
	return out[i%boxLanes]
}

func (b *Boxes) check(q Vector) {
	if len(q) != b.dim {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(q), b.dim))
	}
}

// lanes runs the Euclidean body over the len(dst)/boxLanes whole groups
// that start at box from.
func (b *Boxes) lanes(q Vector, from int, dst []float64) {
	groups := b.data[b.faces(from):b.faces(from+len(dst))]
	if b.asm {
		eucBoxesAVX2(q, groups, dst)
	} else {
		eucBoxesGo(q, groups, dst)
	}
}

// eucBoxesGo is the portable Euclidean sweep and the definition of what the
// assembly computes: boxes holds len(dst)/boxLanes groups of len(q)
// dimensions, dst gets one root per lane.
func eucBoxesGo(q Vector, boxes []float64, dst []float64) {
	for ; len(dst) >= boxLanes; dst = dst[boxLanes:] {
		var s [boxLanes]float64
		for _, x := range q {
			f := boxes[:boxStride]
			boxes = boxes[boxStride:]
			for l := range s {
				g := eucGap(f[l], f[l+boxLanes], x)
				s[l] += g * g
			}
		}
		for l, sum := range s {
			dst[l] = math.Sqrt(sum)
		}
	}
}

// eucGap is BoxGap(x, lo, hi) up to the sign of a zero, written without a
// branch on the data: the branches of BoxGap, not its arithmetic, were two
// thirds of a plan's cost.
func eucGap(lo, hi, x float64) float64 {
	return max(lo-x, x-hi, 0)
}

// bound is the one-box body of every metric, in Go.
func (b *Boxes) bound(q Vector, i int) float64 {
	f := b.data[b.faces(i):]
	switch b.body {
	case boxUnknown:
		return 0
	case boxEuclidean:
		var s float64
		for d, x := range q {
			g := eucGap(f[d*boxStride], f[d*boxStride+boxLanes], x)
			s += g * g
		}
		return math.Sqrt(s)
	case boxByGapVector:
		// The definition, and what the other bodies must equal bit for bit.
		gap, zero := make(Vector, b.dim), make(Vector, b.dim)
		for d, x := range q {
			gap[d] = BoxGap(x, f[d*boxStride], f[d*boxStride+boxLanes])
		}
		return b.metric.Distance(gap, zero)
	}
	var s float64
	for d, x := range q {
		t := b.kernel.Term(d, BoxGap(x, f[d*boxStride], f[d*boxStride+boxLanes]))
		if b.kernel.Max {
			s = max(s, t)
		} else {
			s += t
		}
	}
	return b.kernel.Finish(s)
}
